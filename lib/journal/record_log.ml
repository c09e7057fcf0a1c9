module Json = Qaoa_obs.Json

type corrupt = Refuse | Drop
type reload = { dropped : int; torn_truncated : int }

let frame doc =
  let json = Json.to_string doc in
  Printf.sprintf "%s %s\n" (Crc32.to_hex (Crc32.digest json)) json

let unframe line =
  match String.index_opt line ' ' with
  | None -> None
  | Some sp -> (
    let json = String.sub line (sp + 1) (String.length line - sp - 1) in
    match Crc32.of_hex (String.sub line 0 sp) with
    | Some c when c = Crc32.digest json -> Json.of_string_opt json
    | _ -> None)

let read_all file =
  let ic = open_in_bin file in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let reload ~corrupt file ~parse add =
  if not (Sys.file_exists file) then { dropped = 0; torn_truncated = 0 }
  else begin
    let content = read_all file in
    let len = String.length content in
    let dropped = ref 0 and torn = ref 0 in
    let truncate_at off =
      let fd = Unix.openfile file [ Unix.O_WRONLY ] 0o644 in
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () -> Unix.ftruncate fd off);
      incr torn
    in
    let rec scan off =
      if off < len then
        match String.index_from_opt content off '\n' with
        | None ->
          (* unterminated tail: the classic torn append *)
          truncate_at off
        | Some nl -> (
          let line = String.sub content off (nl - off) in
          match Option.bind (unframe line) parse with
          | Some record ->
            add record;
            scan (nl + 1)
          | None when nl + 1 >= len ->
            (* invalid final record: torn mid-write, drop it *)
            truncate_at off
          | None -> (
            match corrupt with
            | Refuse ->
              failwith
                (Printf.sprintf
                   "corrupt record at byte %d of %s (not the trailing \
                    record - refusing to drop completed records)"
                   off file)
            | Drop ->
              incr dropped;
              scan (nl + 1)))
    in
    scan 0;
    { dropped = !dropped; torn_truncated = !torn }
  end

type t = {
  file : string;
  lock : Mutex.t;
  mutable oc : out_channel option;  (** [None] once closed *)
  mutable appended : int;
}

let open_channel file =
  open_out_gen [ Open_wronly; Open_append; Open_creat ] 0o644 file

let close t =
  Mutex.protect t.lock (fun () ->
      match t.oc with
      | None -> ()
      | Some oc ->
        t.oc <- None;
        flush oc;
        (try Unix.fsync (Unix.descr_of_out_channel oc)
         with Unix.Unix_error _ -> ());
        close_out_noerr oc)

let open_ file =
  let oc = Some (open_channel file) in
  let t = { file; lock = Mutex.create (); oc; appended = 0 } in
  at_exit (fun () -> close t);
  t

let path t = t.file

let append t doc =
  Mutex.protect t.lock (fun () ->
      match t.oc with
      | None -> false
      | Some oc ->
        let line = frame doc in
        (match Chaos.intercept line with
        | Chaos.Pass -> output_string oc line
        | Chaos.Torn prefix -> output_string oc prefix);
        flush oc;
        (* a pending simulated crash fires here - after the bytes hit
           the OS, before the caller publishes the record, exactly like
           a real crash *)
        Chaos.die ();
        t.appended <- t.appended + 1;
        true)

let appended t = Mutex.protect t.lock (fun () -> t.appended)

let rewrite t docs =
  Mutex.protect t.lock (fun () ->
      let was_open =
        match t.oc with
        | None -> false
        | Some oc ->
          flush oc;
          close_out_noerr oc;
          t.oc <- None;
          true
      in
      Atomic_write.write ~path:t.file (fun oc ->
          List.iter (fun doc -> output_string oc (frame doc)) docs);
      if was_open then t.oc <- Some (open_channel t.file))
