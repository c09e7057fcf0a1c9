(** Line-framed Unix-domain socket connections: the one implementation
    of the serving protocol's transport, shared by the daemon
    ({!Daemon.run}), its client ({!Daemon.Client}) and the sharded
    fleet's front socket ({!Shard.run_front}).

    Each side exchanges newline-terminated lines.  Reads frame complete
    lines out of a per-connection buffer and number them from 1 per
    connection; a trailing fragment waits for its newline, and is
    discarded at EOF (an unterminated line was never fully sent).

    A server keeps a table of accepted connections, each carrying the
    caller's own state ['a].  A connection closes when it is dropped:
    on a reset, on a write that fails with [EPIPE]/[ECONNRESET], or once
    the peer has finished writing and the caller's [idle] says nothing
    is outstanding on it.  Every loop here retries [EINTR]. *)

type 'a t
(** One connection with caller state ['a]. *)

val state : 'a t -> 'a
val fd : 'a t -> Unix.file_descr

val eof : 'a t -> bool
(** The peer finished writing (or reset the connection). *)

val connect : string -> unit t option
(** One client connect attempt to the socket at the given path; [None]
    while nothing listens there yet (no socket file, refused, reset,
    interrupted).  @raise Unix.Unix_error on any other failure. *)

val read : 'a t -> (int -> string -> unit) -> [ `Open | `Eof | `Reset ]
(** One [read]: append to the buffer and pass each complete line, with
    its 1-based per-connection number, to the callback.  [`Eof] and
    [`Reset] also mark the connection {!eof}. *)

val send : 'a t -> string -> unit
(** Write [line ^ "\n"] in full.  @raise Unix.Unix_error (e.g.
    [EPIPE]) if the peer is gone. *)

val close : 'a t -> unit
(** Mark {!eof}, close the descriptor.  Idempotent. *)

type 'a server
(** A listening socket plus its accepted connections. *)

val listen : string -> init:(unit -> 'a) -> idle:('a -> bool) -> 'a server
(** Ignore [SIGPIPE], replace a stale socket file at the path, bind and
    listen.  [init] makes each accepted connection's state; [idle] says
    whether a connection has nothing outstanding, so that it can close
    once the peer finished writing.
    @raise Unix.Unix_error if the socket cannot be bound. *)

val read_fds : 'a server -> Unix.file_descr list
(** What to [select] on: the listening socket while accepting, then
    every connection not yet at EOF. *)

val service :
  'a server -> Unix.file_descr -> ('a t -> int -> string -> unit) -> unit
(** Handle one readable descriptor: accept on the listening socket
    (counting [serve.connections]), or {!read} a connection and pass
    its lines on, dropping it on a reset or on EOF when idle.  A
    descriptor the server does not own is ignored. *)

val write_line : 'a server -> 'a t -> string -> unit
(** {!send} to a live connection; [EPIPE]/[ECONNRESET] drops it.  A
    no-op on a dropped connection. *)

val close_if_done : 'a server -> 'a t -> unit
(** Drop the connection if the peer finished writing and it is idle. *)

val fds : 'a server -> Unix.file_descr list
(** Every descriptor the server holds (listening socket while
    accepting, all connections), for closing in a forked child. *)

val stop_accepting : 'a server -> unit
(** Close the listening socket and unlink its file.  Idempotent. *)

val close_all : 'a server -> unit
(** {!stop_accepting} and drop every connection. *)
