(** CRC-framed append-only record log: the one on-disk format behind the
    sweep journal ({!Journal}) and the serving layer's cache journal
    ([Qaoa_serve.Persist]).  Callers own their record schema; this
    module owns the bytes.

    {b Framing.}  One record per line: [<crc32-hex> <compact JSON>\n],
    where the checksum covers the JSON text.  Records are flushed as
    they are appended, so a crash loses at most the record being
    written, which then shows up as a torn trailing record.

    {b Reload.}  Every line is checksum-verified and handed to the
    caller's schema parser.  A torn or corrupt {e trailing} record (the
    signature of a crash mid-append) is truncated off the file in
    place.  A corrupt record {e before} the last one means the storage
    itself is damaged; what happens then is the caller's {!corrupt}
    policy. *)

type corrupt =
  | Refuse
      (** raise [Failure]: the log is authoritative data and silently
          dropping a completed record would lose work *)
  | Drop  (** skip the record and count it: the log is disposable *)

type reload = {
  dropped : int;  (** corrupt mid-file records skipped ([Drop] only) *)
  torn_truncated : int;  (** torn trailing records truncated away *)
}

val reload :
  corrupt:corrupt ->
  string ->
  parse:(Qaoa_obs.Json.t -> 'a option) ->
  ('a -> unit) ->
  reload
(** [reload ~corrupt file ~parse add] feeds every valid record of
    [file], in file order, to [add].  A document [parse] rejects counts
    as corrupt.  A missing file is an empty log.
    @raise Failure on a corrupt mid-file record under [Refuse]. *)

type t
(** An open log, appending at the end of its file. *)

val open_ : string -> t
(** Open (creating) the file for appending.  Registers an [at_exit]
    {!close}. *)

val path : t -> string

val append : t -> Qaoa_obs.Json.t -> bool
(** Write the framed record and flush it; [false] (and nothing written)
    once the log is closed.  The installed {!Chaos} plan intercepts the
    write and may tear it, and a pending simulated crash fires after
    the flush, before this returns.  Appends are serialized by a
    mutex. *)

val appended : t -> int
(** Records written by {!append} since {!open_}. *)

val rewrite : t -> Qaoa_obs.Json.t list -> unit
(** Replace the file with exactly these records via {!Atomic_write} (a
    crash mid-rewrite leaves the previous file intact).  An open log
    keeps appending to the new file. *)

val close : t -> unit
(** Flush, fsync and close.  Idempotent. *)
