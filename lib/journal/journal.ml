module Json = Qaoa_obs.Json
module Metrics = Qaoa_obs.Metrics_registry

type status = Done | Quarantined
type entry = { status : status; payload : Json.t }

type stats = {
  loaded : int;
  appended : int;
  hits : int;
  quarantined : int;
  torn_truncated : int;
}

type t = {
  log : Record_log.t;
  table : (string, entry) Hashtbl.t;
  loaded : int;
  mutable hits : int;
  torn_truncated : int;
}

let default_filename = "journal.jsonl"

let status_to_string = function Done -> "ok" | Quarantined -> "quarantined"

let status_of_string = function
  | "ok" -> Some Done
  | "quarantined" -> Some Quarantined
  | _ -> None

let to_json ~key ~status payload =
  Json.Assoc
    [
      ("key", Json.String key);
      ("status", Json.String (status_to_string status));
      ("payload", payload);
    ]

let of_json doc =
  match
    (Json.member "key" doc, Json.member "status" doc, Json.member "payload" doc)
  with
  | Some (Json.String key), Some (Json.String st), Some payload ->
    Option.map (fun status -> (key, { status; payload })) (status_of_string st)
  | _ -> None

(* Load [file] into [table]: a torn trailing record is truncated away,
   corruption before it or a duplicate key raises [Failure]. *)
let load file table =
  let r =
    Record_log.reload ~corrupt:Record_log.Refuse file ~parse:of_json
      (fun (key, entry) ->
        if Hashtbl.mem table key then
          failwith (Printf.sprintf "Journal: duplicate key %S in %s" key file);
        Hashtbl.replace table key entry)
  in
  if r.Record_log.torn_truncated > 0 then
    Metrics.incr ~by:r.Record_log.torn_truncated "journal.torn_truncated";
  r.Record_log.torn_truncated

let close t = Record_log.close t.log

let open_ ?(resume = false) ~dir () =
  Atomic_write.mkdir_p dir;
  let file = Filename.concat dir default_filename in
  let table = Hashtbl.create 256 in
  let torn_truncated =
    if resume then load file table
    else begin
      (if Sys.file_exists file then
         let len =
           let ic = open_in_bin file in
           Fun.protect
             ~finally:(fun () -> close_in_noerr ic)
             (fun () -> in_channel_length ic)
         in
         if len > 0 then
           failwith
             (Printf.sprintf
                "Journal: %s already holds records; pass --resume to \
                 continue it or choose a fresh --journal directory"
                file));
      0
    end
  in
  {
    log = Record_log.open_ file;
    table;
    loaded = Hashtbl.length table;
    hits = 0;
    torn_truncated;
  }

let path t = Record_log.path t.log
let mem t key = Hashtbl.mem t.table key

let find t key =
  match Hashtbl.find_opt t.table key with
  | Some e ->
    t.hits <- t.hits + 1;
    Metrics.incr "journal.hits";
    Some e
  | None -> None

let append t ~key ~status payload =
  if Hashtbl.mem t.table key then
    invalid_arg (Printf.sprintf "Journal.append: duplicate key %S" key);
  if not (Record_log.append t.log (to_json ~key ~status payload)) then
    invalid_arg "Journal.append: journal is closed";
  Hashtbl.replace t.table key { status; payload };
  Metrics.incr "journal.appends"

let entries t = Hashtbl.length t.table

let stats t =
  {
    loaded = t.loaded;
    appended = Record_log.appended t.log;
    hits = t.hits;
    quarantined =
      Hashtbl.fold
        (fun _ e acc -> if e.status = Quarantined then acc + 1 else acc)
        t.table 0;
    torn_truncated = t.torn_truncated;
  }
