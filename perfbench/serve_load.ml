(* serve-hot, and the cold phase of its traced run: [qaoa-serve]
   daemons driven over their Unix socket, every reply checked against
   the body an uncached in-process handler gives for the same line. *)

open Common
module Json = Qaoa_obs.Json
module Serve = Qaoa_serve.Serve
module Request = Qaoa_serve.Request
module Cache = Qaoa_serve.Cache
module Persist = Qaoa_serve.Persist
module Compile = Qaoa_core.Compile
module Ansatz = Qaoa_core.Ansatz
module Problem = Qaoa_core.Problem
module Topologies = Qaoa_hardware.Topologies
module Device = Qaoa_hardware.Device
module Calibration = Qaoa_hardware.Calibration
module Metrics = Qaoa_circuit.Metrics
module Graph = Qaoa_graph.Graph
module Check = Qaoa_verify.Check
module Dataflow = Qaoa_analysis.Dataflow
module Decompose = Qaoa_circuit.Decompose
module Rng = Qaoa_util.Rng

(* The cold phase's mean arrival rate, about half of the daemon's
   measured capacity for this request mix with one worker domain (see
   README). *)
let cold_rate = 330.0

(* serve-hot's number of distinct requests. *)
let hot_distinct = 300

(* ------------------------------------------------------------------ *)
(* Requests *)

let qasm_every = 10
let malformed_every = 50

(* Malformed lines, rotated: each must be answered [bad_request]. *)
let malformed i =
  match i / malformed_every mod 4 with
  | 0 -> Printf.sprintf {|{"id":"bad-%d","graph":{"n":4,"edges":[[0,1]|} i
  | 1 -> Printf.sprintf {|{"id":"bad-%d","policy":"fastest","graph":{"n":3,"edges":[[0,1],[1,2]]}}|} i
  | 2 -> Printf.sprintf {|{"id":"bad-%d","graph":{"n":3,"edges":[[0,0]]}}|} i
  | _ -> Printf.sprintf {|{"id":"bad-%d","colour":"red","graph":{"n":3,"edges":[[0,1]]}}|} i

(* The [Serve.gen_corpus] mix (12-18 nodes, 6 policies, verify 1/5,
   analyze 1/7) with every [qasm_every]-th request asking for the
   compiled program and, when [bad], every [malformed_every]-th line
   replaced by a malformed one.  All requests are distinct. *)
let corpus ~seed ~count ~bad =
  Serve.gen_corpus ~seed ~count ()
  |> List.mapi (fun i line ->
         if bad && i mod malformed_every = malformed_every - 1 then malformed i
         else if i mod qasm_every = 3 then
           match Request.of_line line with
           | Ok req ->
             Json.to_string (Request.to_json { req with Request.qasm_out = true })
           | Error e -> failwith e
         else line)
  |> Array.of_list

(* What the program should answer, from an uncached in-process
   handler: the rendered body, the handler's and the renderer's ms. *)
type expected = { body : string; handler_ms : float; render_ms : float }

let uncached_config () = { (Serve.default_config ()) with Serve.workers = 1; cache = None }

let expect handler config (line_no, line) =
  let outcome, handler_s = timed (fun () -> handler (line_no, line)) in
  let body, render_s = timed (fun () -> Serve.render config outcome) in
  { body; handler_ms = 1e3 *. handler_s; render_ms = 1e3 *. render_s }

let expected_all lines =
  let config = uncached_config () in
  let handler = Serve.make_handler config in
  (* requests on a connection are numbered from 1 *)
  Array.mapi (fun i l -> expect handler config (i + 1, l)) lines

let field name line = Option.bind (Json.of_string_opt line) (Json.member name)

let error_kind line =
  match Option.bind (field "error" line) (Json.member "kind") with
  | Some (Json.String k) -> Some k
  | _ -> None

let share pred a =
  float_of_int (Array.fold_left (fun k x -> if pred x then k + 1 else k) 0 a)
  /. float_of_int (max 1 (Array.length a))

(* Reply checking: byte equality only, so the load generator does as
   little work per reply as it can.  [failed] counts mismatches. *)
let checker ~name lines (expected : expected array) failed index reply =
  if reply <> expected.(index).body then begin
    incr failed;
    if !failed <= 5 then
      log "%s: reply to line %d differs:\n  sent %s\n  got  %s\n  want %s" name
        (index + 1) lines.(index) reply expected.(index).body
  end

(* Retried and bad_request replies among the answered requests; a
   correct reply equals its expected body, so the bodies tell. *)
let reply_counts (expected : expected array) (o : Wire.outcome) =
  let retried = Array.map (fun e -> field "attempts" e.body <> None) expected
  and bad = Array.map (fun e -> error_kind e.body = Some "bad_request") expected in
  let count flags =
    Array.fold_left (fun k i -> if flags.(i) then k + 1 else k) 0 o.Wire.indices
  in
  [
    ("serve.retried", float_of_int (count retried), "count");
    ("serve.bad_request", float_of_int (count bad), "count");
  ]

let is_malformed l = String.length l > 11 && String.sub l 7 4 = "bad-"

(* Every valid line must be expected to succeed, every malformed one to
   be answered bad_request, or the reference itself is wrong. *)
let check_expected ~name lines expected failed =
  Array.iteri
    (fun i e ->
      let bad = is_malformed lines.(i) in
      let ok = field "ok" e.body = Some (Json.Bool true) in
      let kind = error_kind e.body in
      if (bad && kind <> Some "bad_request") || ((not bad) && not ok) then begin
        incr failed;
        log "%s: reference for line %d is unexpected: %s" name (i + 1) e.body
      end)
    expected

(* ------------------------------------------------------------------ *)
(* Daemon lifecycle *)

(* Start a daemon and wait until it has answered [ready_line]; the pid
   and the seconds from exec to that answer. *)
let start ~dir ~name ~sock ~ready_line ~ready_body args =
  let t0 = now () in
  let pid = Wire.spawn ~dir ~name args in
  match Wire.request sock ready_line with
  | Some reply when reply = ready_body -> (pid, now () -. t0)
  | reply ->
    ignore (Wire.stop pid);
    failwith
      (Printf.sprintf "%s: ready request answered %s" name
         (Option.value ~default:"nothing" reply))

(* In-process stage timings over request lines, each call timed alone. *)
type stages = {
  parse : Layers.acc;
  key : Layers.acc;
  lookup : Layers.acc;
  store : Layers.acc;
  compile : Layers.acc;
  dataflow : Layers.acc;
  statevector : Layers.acc;
  phase_poly : Layers.acc;
  append : Layers.acc;
}

let stages () =
  {
    parse = Layers.acc ();
    key = Layers.acc ();
    lookup = Layers.acc ();
    store = Layers.acc ();
    compile = Layers.acc ();
    dataflow = Layers.acc ();
    statevector = Layers.acc ();
    phase_poly = Layers.acc ();
    append = Layers.acc ();
  }

let stage_total s =
  List.fold_left
    (fun acc (a : Layers.acc) -> acc +. a.Layers.s)
    0.0
    [
      s.parse; s.key; s.lookup; s.store; s.compile; s.dataflow;
      s.statevector; s.phase_poly; s.append;
    ]

let body_fields body =
  match Json.of_string_opt body with
  | Some (Json.Assoc fields) -> List.filter (fun (k, _) -> k <> "id") fields
  | _ -> []

(* What the service compiles for a graph request, with analysis and
   verification left off. *)
let compile_inputs (req : Request.t) ~n ~edges =
  ( Option.get (Topologies.by_name req.Request.device),
    Problem.of_maxcut (Graph.of_edges n edges),
    {
      Ansatz.gammas = Array.make req.Request.p req.Request.gamma;
      betas = Array.make req.Request.p req.Request.beta;
    },
    {
      Compile.default_options with
      seed = req.Request.seed;
      measure = req.Request.measure;
    } )

(* Circuit quality of the workload's compiles, recompiled in process.
   The serve devices carry no calibration, so success probability is
   taken under a uniform 1% CNOT error on the requested device; the
   policies served ignore calibration, so the circuits are the ones
   replied.  Depth and CNOT count must match the reply body. *)
let quality lines (expected : expected array) failed =
  let depth = Sample.create () and cnots = Sample.create () and success = Sample.create () in
  let int_field name body =
    match field name body with Some (Json.Int i) -> i | _ -> -1
  in
  Array.iteri
    (fun i line ->
      match Request.of_line line with
      | Ok ({ Request.source = Request.Graph { n; edges }; _ } as req) ->
        let device, problem, params, options = compile_inputs req ~n ~edges in
        let device =
          Device.with_calibration device
            (Calibration.uniform ~cnot_error:0.01 (Device.coupling_edges device))
        in
        let r =
          Compile.compile ~options ~strategy:req.Request.policy device problem params
        in
        let m = r.Compile.metrics in
        let body = expected.(i).body in
        if
          m.Metrics.depth <> int_field "depth" body
          || m.Metrics.two_qubit_count <> int_field "two_qubit" body
        then begin
          incr failed;
          log "quality: recompile of line %d differs from %s" (i + 1) body
        end;
        Sample.add depth (float_of_int m.Metrics.depth);
        Sample.add cnots (float_of_int m.Metrics.two_qubit_count);
        Sample.add success (Compile.success_probability device r)
      | _ -> ())
    lines;
  let geo s = geomean (Sample.to_array s) in
  [
    ("depth_geomean", geo depth, "gates");
    ("cnot_geomean", geo cnots, "gates");
    ("success_prob_geomean", geo success, "prob");
  ]

(* The cold path of one request, stage by stage: parse, key, lookup
   (a miss), compile as asked with analysis and verification split out,
   store and journal append.  Also replays the compile layer by layer
   into [core].  Returns the seconds spent in the stages. *)
let cold_stages s core cache persist line (e : expected) =
  let before = stage_total s in
  (match Layers.time s.parse (fun () -> Request.of_line line) with
  | Error _ -> ()
  | Ok req -> (
    let key = Layers.time s.key (fun () -> Request.cache_key req) in
    ignore (Layers.time s.lookup (fun () -> Cache.find cache key));
    (match req.Request.source with
    | Request.Qasm _ -> ()
    | Request.Graph { n; edges } ->
      let device, problem, params, options = compile_inputs req ~n ~edges in
      let strategy = req.Request.policy in
      (match
         Layers.time s.compile (fun () ->
             Compile.compile_result ~options ~strategy device problem params)
       with
      | Error _ -> ()
      | Ok r ->
        if req.Request.analyze then
          ignore
            (Layers.time s.dataflow (fun () ->
                 Dataflow.analyze (Decompose.circuit r.Compile.circuit)));
        if req.Request.verify then begin
          let logical =
            Ansatz.circuit ~measure:req.Request.measure problem params
          in
          let report, dt =
            timed (fun () ->
                Check.validate ~device ~initial:r.Compile.initial_mapping
                  ~final:r.Compile.final_mapping
                  ~swap_count:r.Compile.swap_count ~logical r.Compile.circuit)
          in
          Layers.add
            (match report.Check.semantic with
            | Check.Checked { method_ = Check.Phase_polynomial; _ } -> s.phase_poly
            | _ -> s.statevector)
            dt
        end);
      ignore (Layers.replay core ~options ~strategy device problem params));
    let body = body_fields e.body in
    match Layers.time s.store (fun () -> Cache.store cache key body) with
    | Cache.Stored -> Layers.time s.append (fun () -> Persist.append persist key body)
    | Cache.Duplicate | Cache.Oversized -> ()));
  stage_total s -. before

let stage_metrics s =
  [
    ("serve.parse_ms", Layers.ms_per_call s.parse, "ms");
    ("serve.key_ms", Layers.ms_per_call s.key, "ms");
    ("serve.lookup_ms", Layers.ms_per_call s.lookup, "ms");
    ("serve.store_ms", Layers.ms_per_call s.store, "ms");
    ("serve.compile_ms", Layers.ms_per_call s.compile, "ms");
    ("analysis.dataflow_ms", Layers.ms_per_call s.dataflow, "ms");
    ("verify.statevector_ms", Layers.ms_per_call s.statevector, "ms");
    ("verify.phase_poly_ms", Layers.ms_per_call s.phase_poly, "ms");
    ("journal.append_ms", Layers.ms_per_call s.append, "ms");
  ]

let core_metrics (l : Layers.compile_layers) =
  [
    ("core.mapping_ms", Layers.ms_per_call l.Layers.mapping, "ms");
    ("core.ordering_ms", Layers.ms_per_call l.Layers.ordering, "ms");
    ("backend.route_ms", Layers.ms_per_call l.Layers.route, "ms");
    ("core.ic_ms", Layers.ms_per_call l.Layers.ic, "ms");
    ("circuit.decompose_ms", Layers.ms_per_call l.Layers.decompose, "ms");
    ("circuit.metrics_ms", Layers.ms_per_call l.Layers.metrics, "ms");
  ]

let wire_metrics ~setups (o : Wire.outcome) ~rss ~quality =
  let lat = o.Wire.latencies_ms in
  if not (tail_ok lat) then
    log "note: %d samples; p99 has fewer than 10 beyond it" (Array.length lat);
  [
    ("setup_s", median setups, "s");
    ("ops_per_s", float_of_int o.Wire.answered /. o.Wire.elapsed_s, "1/s");
    ("lat_p50_ms", median lat, "ms");
    ("lat_p99_ms", quantile 0.99 lat, "ms");
    ("peak_rss_mb", rss, "MiB");
  ]
  @ quality

(* ------------------------------------------------------------------ *)
(* The cold path over the socket *)

(* One fresh daemon with one worker, fed distinct requests (the corpus
   mix with malformed lines) in an open loop of Poisson arrivals at
   [cold_rate]: every request misses, so this phase carries compile,
   analysis, verification and the cache and journal writes, and shows
   the poll loop's wait under independent arrivals.  Its latencies move
   with the machine's load far more than the bounds allow on a 2-core
   box (see README), so it runs inside the traced serve-hot run and
   feeds per-layer figures only.  Returns the layers, the requests
   attempted and the failures. *)
let cold_phase ~seed ~seconds ~dir =
  let n = int_of_float (cold_rate *. seconds) in
  let all = corpus ~seed ~count:(n + 1) ~bad:true in
  (* the line past the measured ones only proves the daemon ready *)
  let ready_line = all.(n) and lines = Array.sub all 0 n in
  let expected = expected_all lines in
  let ready_body = (expected_all [| ready_line |]).(0).body in
  let failed = ref 0 in
  check_expected ~name:"cold phase" lines expected failed;
  log "cold phase: %d distinct lines at %.0f/s; verify %.3f analyze %.3f \
       qasm_out %.3f malformed %.3f"
    n cold_rate
    (share (fun l -> field "verify" l = Some (Json.Bool true)) lines)
    (share (fun l -> field "analyze" l = Some (Json.Bool true)) lines)
    (share (fun l -> field "qasm_out" l = Some (Json.Bool true)) lines)
    (share is_malformed lines);
  let sock = Filename.concat dir "d.sock" in
  let cache_dir = fresh_dir (Filename.concat dir "cold") in
  let pid, _ =
    start ~dir ~name:"daemon" ~sock ~ready_line ~ready_body
      [ "--daemon"; sock; "--cache-dir"; cache_dir; "--workers"; "1" ]
  in
  (* independent arrivals: exponential gaps at the fixed mean rate *)
  let rng = Rng.create (seed + 29) in
  let offsets = Array.make n 0.0 in
  for i = 1 to n - 1 do
    offsets.(i) <- offsets.(i - 1) -. (Float.log (1.0 -. Rng.float rng 1.0) /. cold_rate)
  done;
  let c = Wire.connect sock in
  let late = Sample.create () in
  let o =
    Wire.open_loop c lines ~offsets ~late
      ~check:(checker ~name:"cold phase" lines expected failed)
  in
  Wire.close c;
  let lookups, hits = Wire.cache_stats sock in
  ignore (Wire.stop pid);
  failed := !failed + o.Wire.unanswered;
  log "cold phase: %d answered, p50 %.3f ms, p99 %.3f ms" o.Wire.answered
    (median o.Wire.latencies_ms) (quantile 0.99 o.Wire.latencies_ms);
  let s = stages () and core = Layers.compile_layers () in
  let cache = Cache.create ~capacity:4096 () in
  let persist = Persist.open_ ~dir:(fresh_dir (Filename.concat dir "replay")) cache in
  let staged = Array.mapi (fun i l -> cold_stages s core cache persist l expected.(i)) lines in
  Persist.close persist;
  let encode = Layers.acc () in
  Array.iter (fun e -> Layers.add encode (e.render_ms /. 1e3)) expected;
  let handler_s =
    Array.fold_left (fun acc e -> acc +. (e.handler_ms /. 1e3)) 0.0 expected
  in
  let staged_s = Array.fold_left ( +. ) 0.0 staged in
  (* wire latency less the in-process work of the same line *)
  let wait =
    Array.mapi
      (fun k l -> l -. expected.(o.Wire.indices.(k)).handler_ms)
      o.Wire.latencies_ms
  in
  let layers =
    core_metrics core @ stage_metrics s @ reply_counts expected o
    @ [
        ("serve.encode_ms", Layers.ms_per_call encode, "ms");
        ("daemon.wait_ms", median wait, "ms");
        ("serve.hit_share", float_of_int hits /. float_of_int (max 1 lookups), "share");
        ("loadgen.late_p99_ms", quantile 0.99 (Sample.to_array late), "ms");
        ( "lat_p50.unattributed_ms",
          median (Array.mapi (fun i e -> e.handler_ms -. (1e3 *. staged.(i))) expected),
          "ms" );
        ("trace.overhead_share", 1.0 -. (handler_s /. staged_s), "share");
      ]
  in
  (layers, n, !failed)

(* ------------------------------------------------------------------ *)
(* serve-hot *)

(* Zipf(1.1) ranks over a seeded permutation of the distinct lines. *)
let skewed_draw rng count =
  let perm = Rng.permutation rng count in
  let cum = Array.make count 0.0 in
  let total = ref 0.0 in
  for k = 0 to count - 1 do
    total := !total +. (1.0 /. (float_of_int (k + 1) ** 1.1));
    cum.(k) <- !total
  done;
  fun () ->
    let u = Rng.float rng !total in
    let rec search lo hi =
      if lo >= hi then lo
      else
        let mid = (lo + hi) / 2 in
        if cum.(mid) < u then search (mid + 1) hi else search lo mid
    in
    perm.(search 0 (count - 1))

let write_lines path lines =
  let oc = open_out path in
  Array.iter (fun l -> output_string oc l; output_char oc '\n') lines;
  close_out oc

let hot ~seed ~seconds ~trace ~dir =
  let lines = corpus ~seed ~count:hot_distinct ~bad:false in
  let expected = expected_all lines in
  let failed = ref 0 in
  check_expected ~name:"serve-hot" lines expected failed;
  log "serve-hot: %d distinct lines; qasm_out %.3f" hot_distinct
    (share (fun l -> field "qasm_out" l = Some (Json.Bool true)) lines);
  (* prime the per-shard journals with a batch run of the fleet *)
  let cache_dir = fresh_dir (Filename.concat dir "hot") in
  let input = Filename.concat dir "distinct.jsonl" in
  write_lines input lines;
  let primed = Filename.concat dir "primed.jsonl" in
  Wire.run_batch ~dir ~name:"prime"
    [
      "--shards"; "2"; "--workers"; "2"; "--cache-dir"; cache_dir; "--input";
      input; "--output"; primed;
    ];
  List.iteri
    (fun i reply -> checker ~name:"serve-hot prime" lines expected failed i reply)
    (read_lines primed);
  let sock = Filename.concat dir "f.sock" in
  let launch () =
    start ~dir ~name:"fleet" ~sock ~ready_line:lines.(0)
      ~ready_body:expected.(0).body
      [
        "--shards"; "2"; "--workers"; "2"; "--cache-dir"; cache_dir;
        "--resume-cache"; "--daemon"; sock;
      ]
  in
  let setups = Array.make 6 0.0 and drains = Array.make 6 0.0 in
  for k = 0 to 4 do
    let pid, dt = launch () in
    setups.(k) <- dt;
    drains.(k) <- Wire.stop pid
  done;
  let pid, dt = launch () in
  setups.(5) <- dt;
  let draw = skewed_draw (Rng.create (seed + 17)) hot_distinct in
  let load ~seconds sock =
    let conns = [ Wire.connect sock; Wire.connect sock ] in
    let o =
      Wire.closed_loop conns ~seconds ~next:draw ~lines
        ~check:(checker ~name:"serve-hot" lines expected failed)
    in
    List.iter Wire.close conns;
    failed := !failed + o.Wire.unanswered;
    o
  in
  (* traced, a third each goes to the fleet, one warm daemon and the
     cold phase *)
  let part = if trace then seconds /. 3.0 else seconds in
  let o = load ~seconds:part sock in
  let shard_stats =
    List.init 2 (fun k ->
        Wire.cache_stats (Filename.concat cache_dir (Printf.sprintf "shard-%d.sock" k)))
  in
  let rss = Wire.tree_peak_rss_mb pid in
  drains.(5) <- Wire.stop pid;
  let end_to_end = wire_metrics ~setups o ~rss ~quality:(quality lines expected failed) in
  let attempted = hot_distinct + o.Wire.answered + o.Wire.unanswered in
  if not trace then (end_to_end, None, attempted, !failed)
  else begin
    let lookups = List.fold_left (fun a (l, _) -> a + l) 0 shard_stats
    and hits = List.fold_left (fun a (_, h) -> a + h) 0 shard_stats in
    let journal k = Filename.concat cache_dir (Printf.sprintf "shard-%d/%s" k Persist.default_filename) in
    (* one warm daemon with both shards' entries, same lines: the hop *)
    let single_dir = fresh_dir (Filename.concat dir "single") in
    let merged = open_out_bin (Filename.concat single_dir Persist.default_filename) in
    List.iter
      (fun k -> List.iter (fun l -> output_string merged (l ^ "\n")) (read_lines (journal k)))
      [ 0; 1 ];
    close_out merged;
    let single_sock = Filename.concat dir "s.sock" in
    let spid, _ =
      start ~dir ~name:"single" ~sock:single_sock ~ready_line:lines.(0)
        ~ready_body:expected.(0).body
        [
          "--daemon"; single_sock; "--cache-dir"; single_dir; "--resume-cache";
          "--workers"; "1";
        ]
    in
    let so = load ~seconds:part single_sock in
    ignore (Wire.stop spid);
    (* journal reload, in process, on copies of a primed shard journal *)
    let reload () =
      let d = fresh_dir (Filename.concat dir "reload") in
      copy_file (journal 0) (Filename.concat d Persist.default_filename);
      let cache = Cache.create ~capacity:4096 () in
      let p, dt = timed (fun () -> Persist.open_ ~resume:true ~dir:d cache) in
      Persist.close p;
      dt
    in
    let reloads = Array.init 5 (fun _ -> reload ()) in
    (* the warm in-process path over the same lines *)
    let warm = Cache.create ~capacity:4096 () in
    List.iter
      (fun k ->
        let d = fresh_dir (Filename.concat dir (Printf.sprintf "warm-%d" k)) in
        copy_file (journal k) (Filename.concat d Persist.default_filename);
        Persist.close (Persist.open_ ~resume:true ~dir:d warm))
      [ 0; 1 ];
    let config = { (uncached_config ()) with Serve.cache = Some warm } in
    let handler = Serve.make_handler config in
    let warm_expected = Array.mapi (fun i l -> expect handler config (i + 1, l)) lines in
    Array.iteri
      (fun i e -> checker ~name:"serve-hot warm" lines expected failed i e.body)
      warm_expected;
    let s = stages () in
    let encode = Layers.acc () in
    let staged =
      Array.mapi
        (fun i line ->
          let before = stage_total s in
          (match Layers.time s.parse (fun () -> Request.of_line line) with
          | Ok req ->
            let key = Layers.time s.key (fun () -> Request.cache_key req) in
            ignore (Layers.time s.lookup (fun () -> Cache.find warm key))
          | Error _ -> ());
          Layers.add encode (warm_expected.(i).render_ms /. 1e3);
          1e3 *. (stage_total s -. before))
        lines
    in
    let wait =
      Array.mapi
        (fun k l -> l -. warm_expected.(o.Wire.indices.(k)).handler_ms)
        o.Wire.latencies_ms
    in
    let cold_layers, cold_attempted, cold_failed =
      cold_phase ~seed ~seconds:part ~dir:(fresh_dir (Filename.concat dir "cold-phase"))
    in
    (* hot figures first: where both measure a layer, the hot one stands *)
    let layers =
      [
        ("serve.parse_ms", Layers.ms_per_call s.parse, "ms");
        ("serve.key_ms", Layers.ms_per_call s.key, "ms");
        ("serve.lookup_ms", Layers.ms_per_call s.lookup, "ms");
        ("serve.encode_ms", Layers.ms_per_call encode, "ms");
        ("journal.reload_s", median reloads, "s");
        ("daemon.wait_ms", median wait, "ms");
        ("shard.hop_ms", median o.Wire.latencies_ms -. median so.Wire.latencies_ms, "ms");
        ("shard.spawn_ready_s", median setups, "s");
        ("fleet.drain_s", median drains, "s");
        ("serve.hit_share", float_of_int hits /. float_of_int (max 1 lookups), "share");
        ( "lat_p50.unattributed_ms",
          median
            (Array.mapi (fun i e -> e.handler_ms -. staged.(i)) warm_expected),
          "ms" );
        ( "trace.overhead_share",
          1.0
          -. Array.fold_left (fun acc e -> acc +. e.handler_ms) 0.0 warm_expected
             /. Array.fold_left ( +. ) 0.0 staged,
          "share" );
      ]
      @ cold_layers
    in
    (end_to_end, Some layers, attempted + cold_attempted, !failed + cold_failed)
  end
