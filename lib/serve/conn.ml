module Metrics_registry = Qaoa_obs.Metrics_registry

type 'a t = {
  fd : Unix.file_descr;
  buf : Buffer.t;  (** bytes read but not yet framed into lines *)
  mutable line_no : int;  (** lines framed so far *)
  mutable eof : bool;
  mutable alive : bool;
  state : 'a;
}

let make fd state =
  { fd; buf = Buffer.create 256; line_no = 0; eof = false; alive = true; state }

let state c = c.state
let fd c = c.fd
let eof c = c.eof

let close c =
  c.eof <- true;
  if c.alive then begin
    c.alive <- false;
    try Unix.close c.fd with Unix.Unix_error _ -> ()
  end

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX path) with
  | () -> Some (make fd ())
  | exception
      Unix.Unix_error
        ( (Unix.ECONNREFUSED | Unix.ENOENT | Unix.ECONNRESET | Unix.EINTR),
          _,
          _ ) ->
    Unix.close fd;
    None
  | exception e ->
    Unix.close fd;
    raise e

(* Frame complete lines out of the buffer; a trailing fragment stays
   buffered until its newline arrives. *)
let frame c f =
  let s = Buffer.contents c.buf in
  let rec go off =
    match String.index_from_opt s off '\n' with
    | None ->
      if off > 0 then begin
        Buffer.clear c.buf;
        Buffer.add_substring c.buf s off (String.length s - off)
      end
    | Some nl ->
      c.line_no <- c.line_no + 1;
      f c.line_no (String.sub s off (nl - off));
      go (nl + 1)
  in
  go 0

let read c f =
  let bytes = Bytes.create 4096 in
  match Unix.read c.fd bytes 0 4096 with
  | 0 ->
    c.eof <- true;
    `Eof
  | n ->
    Buffer.add_subbytes c.buf bytes 0 n;
    frame c f;
    `Open
  | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
    c.eof <- true;
    `Reset
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> `Open

let rec write_all fd s off len =
  if len > 0 then
    match Unix.write_substring fd s off len with
    | n -> write_all fd s (off + n) (len - n)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_all fd s off len

let send c line = write_all c.fd (line ^ "\n") 0 (String.length line + 1)

type 'a server = {
  path : string;
  mutable listener : Unix.file_descr option;  (** [None] once stopped *)
  conns : (Unix.file_descr, 'a t) Hashtbl.t;
  init : unit -> 'a;
  idle : 'a -> bool;
}

let listen path ~init ~idle =
  (* a client that disconnects mid-response must cost us an EPIPE, not
     the process *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ | Sys_error _ -> ());
  if Sys.file_exists path then (
    try Unix.unlink path with Unix.Unix_error _ -> ());
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX path);
  Unix.listen fd 16;
  { path; listener = Some fd; conns = Hashtbl.create 8; init; idle }

let read_fds s =
  Option.to_list s.listener
  @ Hashtbl.fold (fun fd c acc -> if c.eof then acc else fd :: acc) s.conns []

let drop s c =
  if c.alive then begin
    Hashtbl.remove s.conns c.fd;
    close c
  end

let close_if_done s c = if c.eof && s.idle c.state then drop s c

let service s fd on_line =
  if s.listener = Some fd then (
    match Unix.accept fd with
    | cfd, _ ->
      Hashtbl.replace s.conns cfd (make cfd (s.init ()));
      Metrics_registry.incr "serve.connections"
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ())
  else
    match Hashtbl.find_opt s.conns fd with
    | None -> ()
    | Some c -> (
      match read c (on_line c) with
      | `Open -> ()
      | `Eof -> close_if_done s c
      | `Reset -> drop s c)

let write_line s c line =
  if c.alive then
    try send c line
    with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> drop s c

let fds s =
  Option.to_list s.listener
  @ Hashtbl.fold (fun fd _ acc -> fd :: acc) s.conns []

let stop_accepting s =
  match s.listener with
  | None -> ()
  | Some fd ->
    s.listener <- None;
    (try Unix.close fd with Unix.Unix_error _ -> ());
    (try Unix.unlink s.path with Unix.Unix_error _ -> ())

let close_all s =
  stop_accepting s;
  List.iter (drop s) (Hashtbl.fold (fun _ c acc -> c :: acc) s.conns [])
