(* Shared plumbing for the benchmark: clocks, order statistics, the
   result line, the run directory and process memory readings. *)

module Json = Qaoa_obs.Json

let now = Unix.gettimeofday

(* Wall seconds of [f ()], with its value. *)
let timed f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

let sorted a =
  let a = Array.copy a in
  Array.sort compare a;
  a

(* Linear-interpolated quantile, q in [0, 1]. *)
let quantile q xs = Qaoa_util.Stats.percentile_sorted_array (100.0 *. q) (sorted xs)

let median xs = quantile 0.5 xs
let geomean xs = Qaoa_util.Stats.geometric_mean (Array.to_list xs)

(* A p99 wants at least ten samples beyond it; runs are sized so that
   it has them, and the report says when it has not. *)
let tail_ok xs = Array.length xs >= 1000

(* Growable float sample. *)
module Sample = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 1024 0.0; n = 0 }

  let add t x =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0.0 in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- x;
    t.n <- t.n + 1

  let to_array t = Array.sub t.a 0 t.n
  let length t = t.n
end

(* ------------------------------------------------------------------ *)
(* Result line *)

type metric = string * float * string  (** name, value, unit *)

let result_line ~correct ~attempted ~failed (metrics : metric list) =
  let num v = if Float.is_finite v then Json.Float v else Json.Float 0.0 in
  Json.to_string
    (Json.Assoc
       [
         ("correct", Json.Bool correct);
         ("attempted", Json.Int attempted);
         ("failed", Json.Int failed);
         ( "metrics",
           Json.Assoc
             (List.map
                (fun (name, v, unit) ->
                  (name, Json.Assoc [ ("value", num v); ("unit", Json.String unit) ]))
                metrics) );
       ])

let log fmt = Printf.eprintf (fmt ^^ "\n%!")

(* ------------------------------------------------------------------ *)
(* Run directory: everything a run writes lives under it, relative to
   the checkout root, so Unix socket paths stay short wherever the
   checkout sits. *)

let run_root = ".perfbench_run"

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Unix.unlink path

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    Unix.mkdir path 0o755
  end

let fresh_dir path =
  rm_rf path;
  mkdir_p path;
  path

let copy_file src dst =
  let ic = open_in_bin src and oc = open_out_bin dst in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic; close_out_noerr oc)
    (fun () ->
      let buf = Bytes.create 65536 in
      let rec go () =
        let n = input ic buf 0 65536 in
        if n > 0 then (output oc buf 0 n; go ())
      in
      go ())

let read_lines path =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () ->
      let rec go acc =
        match input_line ic with
        | l -> go (l :: acc)
        | exception End_of_file -> List.rev acc
      in
      go [])

(* ------------------------------------------------------------------ *)
(* Process memory *)

(* Peak resident set (VmHWM) of a live process, in MiB; 0 if gone. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match read_lines path with
  | exception Sys_error _ -> 0.0
  | lines ->
    List.fold_left
      (fun acc l ->
        match String.split_on_char ':' l with
        | [ "VmHWM"; v ] -> (
          match String.split_on_char ' ' (String.trim v) with
          | kb :: _ -> float_of_string kb /. 1024.0
          | [] -> acc)
        | _ -> acc)
      0.0 lines

(* Direct children of [pid], from each process's stat line. *)
let children_of pid =
  Sys.readdir "/proc" |> Array.to_list
  |> List.filter_map (fun e ->
         match int_of_string_opt e with
         | None -> None
         | Some child -> (
           match read_lines (Printf.sprintf "/proc/%d/stat" child) with
           | exception Sys_error _ -> None
           | line :: _ -> (
             (* the command name may hold spaces; fields resume after ')' *)
             match String.rindex_opt line ')' with
             | None -> None
             | Some i -> (
               match
                 String.split_on_char ' '
                   (String.sub line (i + 2) (String.length line - i - 2))
               with
               | _state :: ppid :: _ when int_of_string_opt ppid = Some pid ->
                 Some child
               | _ -> None))
           | [] -> None))
