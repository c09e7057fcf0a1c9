module Metrics_registry = Qaoa_obs.Metrics_registry

(* Per-connection state.  All mutation happens on the calling domain
   (produce/consume both run there); workers only ever carry the
   pointer through the pool. *)
type conn = { mutable inflight : int  (** submitted, not yet answered *) }

module Client = struct
  type t = { conn : unit Conn.t; lines : string Queue.t }

  exception Timeout of string

  let connect ?(timeout_s = 10.0) path =
    let deadline = Unix.gettimeofday () +. timeout_s in
    let rec go () =
      match Conn.connect path with
      | Some conn -> { conn; lines = Queue.create () }
      | None ->
        if Unix.gettimeofday () >= deadline then
          raise
            (Timeout
               (Printf.sprintf "%s not accepting within %.1fs" path timeout_s))
        else begin
          Unix.sleepf 0.01;
          go ()
        end
    in
    go ()

  let fd t = Conn.fd t.conn
  let send_line t line = Conn.send t.conn line
  let read t = Conn.read t.conn (fun _ line -> Queue.add line t.lines)

  let recv_line ?(timeout_s = 30.0) t =
    let deadline = Unix.gettimeofday () +. timeout_s in
    let rec go () =
      match Queue.take_opt t.lines with
      | Some l -> Some l
      | None ->
        if Conn.eof t.conn then None
        else begin
          let remaining = deadline -. Unix.gettimeofday () in
          if remaining <= 0.0 then
            raise (Timeout (Printf.sprintf "no reply within %.1fs" timeout_s));
          (match Unix.select [ fd t ] [] [] (Float.min remaining 0.25) with
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
          | [], _, _ -> ()
          | _ :: _, _, _ -> ignore (read t));
          go ()
        end
    in
    go ()

  let request ?timeout_s t line =
    send_line t line;
    recv_line ?timeout_s t

  (* Non-blocking variant for callers multiplexing many clients in
     their own select loop: drain whatever the kernel has buffered,
     then report one framed line (or EOF) without ever waiting. *)
  let poll_line t =
    let rec drain () =
      match Unix.select [ fd t ] [] [] 0.0 with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> drain ()
      | [], _, _ -> ()
      | _ :: _, _, _ -> (
        match read t with `Open -> drain () | `Eof | `Reset -> ())
    in
    if Queue.is_empty t.lines && not (Conn.eof t.conn) then drain ();
    match Queue.take_opt t.lines with
    | Some l -> `Line l
    | None -> if Conn.eof t.conn then `Eof else `Nothing

  let close t = Conn.close t.conn
end

let run ?(on_ready = fun () -> ()) ?shutdown_fd (config : Serve.config)
    ~socket_path ~drain =
  if config.Serve.sort then
    invalid_arg "Daemon: sort is batch-only (a daemon stream has no end)";
  let handler = Serve.make_handler config in
  let server =
    Conn.listen socket_path
      ~init:(fun () -> { inflight = 0 })
      ~idle:(fun c -> c.inflight = 0)
  in
  on_ready ();
  let pending : (conn Conn.t * (int * string)) Queue.t = Queue.create () in
  let requests = ref 0 and errors = ref 0 in
  let enqueue c line_no line =
    (Conn.state c).inflight <- (Conn.state c).inflight + 1;
    Queue.add (c, (line_no, line)) pending
  in
  (* The parent-death watch: when the supervisor holding the other end
     of this pipe exits (gracefully or not), the fd turns readable at
     EOF and the daemon self-drains as if SIGTERM had arrived - no
     orphaned shard keeps listening on an unlinked socket or appending
     to a journal its successor will reopen. *)
  let check_shutdown fd =
    let b = Bytes.create 16 in
    match Unix.read fd b 0 16 with
    | 0 -> ignore (Atomic.compare_and_set drain 0 143)
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | exception Unix.Unix_error (_, _, _) ->
      ignore (Atomic.compare_and_set drain 0 143)
  in
  let poll_io () =
    let fds = Option.to_list shutdown_fd @ Conn.read_fds server in
    (* the bounded timeout is what makes [Block] safe: the driver
       drains finished responses between polls, and a delivered signal
       (EINTR or the drain flag) is observed within 50ms *)
    match Unix.select fds [] [] 0.05 with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | ready, _, _ ->
      List.iter
        (fun fd ->
          if shutdown_fd = Some fd then check_shutdown fd
          else Conn.service server fd enqueue)
        ready
  in
  let rec produce () =
    if not (Queue.is_empty pending) then begin
      Metrics_registry.incr "serve.inflight";
      Atomic.incr config.Serve.inflight;
      Pool.Item (Queue.pop pending)
    end
    else if Atomic.get drain <> 0 then begin
      (* graceful drain: stop accepting; already-submitted requests
         finish and their responses flow out below *)
      Conn.stop_accepting server;
      Pool.Eof
    end
    else begin
      poll_io ();
      if Queue.is_empty pending then Pool.Block else produce ()
    end
  in
  let consume _seq (c, outcome) =
    Metrics_registry.incr ~by:(-1) "serve.inflight";
    Atomic.decr config.Serve.inflight;
    incr requests;
    if Serve.outcome_error outcome then incr errors;
    Conn.write_line server c (Serve.render config outcome);
    (Conn.state c).inflight <- (Conn.state c).inflight - 1;
    Conn.close_if_done server c
  in
  let _count =
    Pool.stream_poll ~workers:config.Serve.workers
      ~queue_capacity:config.Serve.queue_capacity ~produce ~consume
      (fun (c, item) -> (c, handler item))
  in
  Conn.close_all server;
  {
    Serve.requests = !requests;
    errors = !errors;
    cache_stats = Option.map Cache.stats config.Serve.cache;
  }
