module Json = Qaoa_obs.Json
module Metrics = Qaoa_obs.Metrics_registry
module Record_log = Qaoa_journal.Record_log
module Atomic_write = Qaoa_journal.Atomic_write

let default_filename = "cache.jsonl"

type t = {
  log : Record_log.t;
  loaded : int;
  dropped : int;
  torn_truncated : int;
}

type stats = {
  s_loaded : int;
  s_appended : int;
  s_dropped : int;
  s_torn_truncated : int;
}

(* One record per cache insertion. *)
let to_json (key : Cache.key) body =
  Json.Assoc
    [
      ("graph_hash", Json.Int key.Cache.graph_hash);
      ("fingerprint", Json.String key.Cache.fingerprint);
      ("body", Json.Assoc body);
    ]

let of_json doc =
  match
    ( Json.member "graph_hash" doc,
      Json.member "fingerprint" doc,
      Json.member "body" doc )
  with
  | Some (Json.Int graph_hash), Some (Json.String fingerprint),
    Some (Json.Assoc body) ->
    Some ({ Cache.graph_hash; fingerprint }, body)
  | _ -> None

(* Reload [file] into [cache].  Unlike the trial journal, a cache is
   disposable state, so a corrupt mid-file record is dropped and
   counted - never served.  Each surviving record re-passed its
   checksum, which is what re-establishes the [cached = fresh]
   byte-equality invariant across the restart: the bytes preloaded are
   exactly the bytes a fresh compile produced before the crash. *)
let load file cache =
  let loaded = ref 0 in
  let r =
    Record_log.reload ~corrupt:Record_log.Drop file ~parse:of_json
      (fun (key, body) ->
        ignore (Cache.preload cache key body);
        incr loaded)
  in
  let count name n = if n > 0 then Metrics.incr ~by:n name in
  count "serve.cache.dropped" r.Record_log.dropped;
  count "serve.cache.torn_truncated" r.Record_log.torn_truncated;
  (!loaded, r.Record_log.dropped, r.Record_log.torn_truncated)

let close t = Record_log.close t.log

let open_ ?(resume = false) ~dir cache =
  Atomic_write.mkdir_p dir;
  let file = Filename.concat dir default_filename in
  let loaded, dropped, torn_truncated =
    if resume then load file cache
    else begin
      (* a cache journal is warmth, not data: starting fresh just
         discards it (contrast Journal.open_, which refuses) *)
      if Sys.file_exists file then Sys.remove file;
      (0, 0, 0)
    end
  in
  { log = Record_log.open_ file; loaded; dropped; torn_truncated }

let path t = Record_log.path t.log

(* Closed during drain: the entry only loses warmth. *)
let append t key body =
  if Record_log.append t.log (to_json key body) then
    Metrics.incr "serve.cache.journal_appends"

(* Rewrite the journal to exactly the cache's live entries (LRU order,
   so a reload reproduces recency). *)
let compact t cache =
  Record_log.rewrite t.log
    (List.map (fun (key, body) -> to_json key body) (Cache.to_list cache));
  Metrics.incr "serve.cache.compactions"

(* Journal records that no longer correspond to a live entry (evicted,
   dropped on load, superseded duplicates) are dead weight; compact
   when there are any, then close. *)
let finish t cache =
  if t.loaded + t.dropped + Record_log.appended t.log > Cache.size cache then
    compact t cache;
  close t

let stats t =
  {
    s_loaded = t.loaded;
    s_appended = Record_log.appended t.log;
    s_dropped = t.dropped;
    s_torn_truncated = t.torn_truncated;
  }
