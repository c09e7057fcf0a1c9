(* The program over its socket: spawning and stopping [qaoa-serve]
   processes, and the load generator's client connections. *)

open Common

let serve_exe = "_build/default/bin/qaoa_serve_cli.exe"

(* Every process this run started and has not reaped yet; killed at
   exit so a failed run leaves nothing behind. *)
let live = ref []

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !live)

let spawn ~dir ~name args =
  let open_out_fd path =
    Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let stdin_path = Filename.concat dir "empty" in
  close_out (open_out stdin_path);
  let fd_in = Unix.openfile stdin_path [ Unix.O_RDONLY ] 0 in
  let fd_out = open_out_fd (Filename.concat dir (name ^ ".out")) in
  let fd_err = open_out_fd (Filename.concat dir (name ^ ".err")) in
  let pid =
    Unix.create_process serve_exe
      (Array.of_list (serve_exe :: args))
      fd_in fd_out fd_err
  in
  List.iter Unix.close [ fd_in; fd_out; fd_err ];
  live := pid :: !live;
  pid

let rec wait_pid pid =
  match Unix.waitpid [] pid with
  | _, status ->
    live := List.filter (( <> ) pid) !live;
    status
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait_pid pid

(* Run a batch [qaoa-serve] to completion. *)
let run_batch ~dir ~name args =
  match wait_pid (spawn ~dir ~name args) with
  | Unix.WEXITED 0 -> ()
  | _ -> failwith (Printf.sprintf "qaoa-serve %s failed" (String.concat " " args))

(* SIGTERM, then wait until the process is reaped; the seconds it took. *)
let stop pid =
  let t0 = now () in
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
  ignore (wait_pid pid);
  now () -. t0

(* ------------------------------------------------------------------ *)
(* Connections *)

(* Not [Daemon.Client]: its writes block, and an open loop that keeps
   sending while the daemon blocks writing replies back would deadlock;
   and its connect polls every 10 ms, which would quantise [setup_s]. *)
type conn = {
  fd : Unix.file_descr;  (** non-blocking *)
  buf : Buffer.t;  (** bytes read but not yet framed into replies *)
  out : Buffer.t;  (** bytes sent but not yet written *)
  pending : (int * float) Queue.t;  (** (request index, start time), FIFO *)
  mutable eof : bool;
}

(* Connect, retrying every millisecond while the socket is not bound
   yet, until [timeout_s]. *)
let connect ?(timeout_s = 30.0) path =
  let deadline = now () +. timeout_s in
  let rec go () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () ->
      Unix.set_nonblock fd;
      {
        fd;
        buf = Buffer.create 4096;
        out = Buffer.create 4096;
        pending = Queue.create ();
        eof = false;
      }
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
      when now () < deadline ->
      Unix.close fd;
      Unix.sleepf 0.001;
      go ()
  in
  go ()

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

(* Write what the socket takes now; the rest waits for writability, so
   a full socket never blocks the reader (the daemon may be blocked
   writing replies to us). *)
let flush_out c =
  let s = Buffer.contents c.out in
  let rec go off =
    if off < String.length s then
      match Unix.write_substring c.fd s off (String.length s - off) with
      | n -> go (off + n)
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> off
      | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
        c.eof <- true;
        String.length s
    else off
  in
  let off = go 0 in
  Buffer.clear c.out;
  Buffer.add_substring c.out s off (String.length s - off)

let send c ~index ~start line =
  Queue.add (index, start) c.pending;
  Buffer.add_string c.out line;
  Buffer.add_char c.out '\n';
  flush_out c

(* Read what is there and hand each complete reply, with the request it
   answers, to [on_reply]; marks [eof] at end of stream. *)
let read c ~on_reply =
  let bytes = Bytes.create 65536 in
  match Unix.read c.fd bytes 0 65536 with
  | 0 -> c.eof <- true
  | n ->
    Buffer.add_subbytes c.buf bytes 0 n;
    let s = Buffer.contents c.buf in
    let rec go off =
      match String.index_from_opt s off '\n' with
      | None ->
        Buffer.clear c.buf;
        Buffer.add_substring c.buf s off (String.length s - off)
      | Some nl ->
        let index, start = Queue.pop c.pending in
        on_reply c ~index ~start (String.sub s off (nl - off));
        go (nl + 1)
    in
    go 0
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
  | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> c.eof <- true

(* Wait up to [timeout] for any connection to turn readable or, with
   output queued, writable; then move the bytes. *)
let pump conns timeout ~on_reply =
  let live = List.filter (fun c -> not c.eof) conns in
  let rd = List.map (fun c -> c.fd) live in
  let wr = List.filter_map (fun c -> if Buffer.length c.out > 0 then Some c.fd else None) live in
  match Unix.select rd wr [] (Float.max 0.0 timeout) with
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  | r, w, _ ->
    List.iter
      (fun c ->
        if List.mem c.fd w then flush_out c;
        if List.mem c.fd r then read c ~on_reply)
      live

(* One request on a fresh connection; the reply, or None on timeout. *)
let request ?(timeout_s = 30.0) path line =
  let c = connect ~timeout_s path in
  let reply = ref None in
  send c ~index:0 ~start:(now ()) line;
  let deadline = now () +. timeout_s in
  while !reply = None && (not c.eof) && now () < deadline do
    pump [ c ] (deadline -. now ()) ~on_reply:(fun _ ~index:_ ~start:_ l ->
        reply := Some l)
  done;
  close c;
  !reply

(* ------------------------------------------------------------------ *)
(* Load *)

type outcome = {
  answered : int;
  latencies_ms : float array;  (** per answered request, from its start *)
  indices : int array;  (** the request each latency belongs to *)
  unanswered : int;  (** sent but never answered: timeouts *)
  elapsed_s : float;  (** first due time to last reply *)
}

(* Open loop on one connection: request [i] is due [offsets.(i)]
   seconds after the start whether or not earlier ones were answered,
   and its latency counts from that due time.  [late] receives how late
   each send was. *)
let open_loop c lines ~offsets ~check ~late =
  let n = Array.length lines in
  let t0 = now () +. 0.005 in
  let due i = t0 +. offsets.(i) in
  let deadline = due (n - 1) +. 30.0 in
  let lat = Sample.create () and idx = Sample.create () in
  let sent = ref 0 and last = ref t0 in
  let on_reply _ ~index ~start line =
    let t = now () in
    last := t;
    Sample.add lat (1e3 *. (t -. start));
    Sample.add idx (float_of_int index);
    check index line
  in
  while (not c.eof) && Sample.length lat < n && now () < deadline do
    let t = now () in
    while !sent < n && due !sent <= t do
      Sample.add late (1e3 *. (t -. due !sent));
      send c ~index:!sent ~start:(due !sent) lines.(!sent);
      incr sent
    done;
    let wait = if !sent < n then due !sent -. now () else deadline -. now () in
    pump [ c ] (Float.min wait 0.1) ~on_reply
  done;
  let latencies_ms = Sample.to_array lat in
  {
    answered = Array.length latencies_ms;
    latencies_ms;
    indices = Array.map int_of_float (Sample.to_array idx);
    unanswered = !sent - Array.length latencies_ms;
    elapsed_s = !last -. t0;
  }

(* Closed loop: each connection keeps one request outstanding, taking
   the next from [next] when its reply arrives, until [seconds] pass. *)
let closed_loop conns ~seconds ~next ~lines ~check =
  let t0 = now () in
  let t_end = t0 +. seconds in
  let deadline = t_end +. 30.0 in
  let lat = Sample.create () and idx = Sample.create () in
  let sent = ref 0 and last = ref t0 in
  let issue c =
    let i = next () in
    incr sent;
    send c ~index:i ~start:(now ()) lines.(i)
  in
  List.iter issue conns;
  let on_reply c ~index ~start line =
    let t = now () in
    last := t;
    Sample.add lat (1e3 *. (t -. start));
    Sample.add idx (float_of_int index);
    check index line;
    if t < t_end then issue c
  in
  let busy () =
    List.exists (fun c -> (not c.eof) && not (Queue.is_empty c.pending)) conns
  in
  while busy () && now () < deadline do
    pump conns 0.1 ~on_reply
  done;
  let latencies_ms = Sample.to_array lat in
  {
    answered = Array.length latencies_ms;
    latencies_ms;
    indices = Array.map int_of_float (Sample.to_array idx);
    unanswered = !sent - Array.length latencies_ms;
    elapsed_s = !last -. t0;
  }

(* Cache lookups and hits of one daemon, from its stats control verb. *)
let cache_stats path =
  match request path {|{"op":"stats"}|} with
  | None -> (0, 0)
  | Some line -> (
    let module Json = Qaoa_obs.Json in
    let field name j =
      match Json.member name j with Some (Json.Int i) -> i | _ -> 0
    in
    match Option.bind (Json.of_string_opt line) (Json.member "cache") with
    | Some cache -> (field "lookups" cache, field "hits" cache)
    | None -> (0, 0))

(* Summed peak resident memory of a process and its children. *)
let tree_peak_rss_mb pid =
  List.fold_left
    (fun acc p -> acc +. peak_rss_mb (string_of_int p))
    (peak_rss_mb (string_of_int pid))
    (children_of pid)
