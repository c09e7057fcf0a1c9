(* compile-paper: the library in a closed loop with one caller, over a
   seeded draw from the paper's evaluation grid. *)

open Common
module Compile = Qaoa_core.Compile
module Ansatz = Qaoa_core.Ansatz
module Problem = Qaoa_core.Problem
module Device = Qaoa_hardware.Device
module Topologies = Qaoa_hardware.Topologies
module Generators = Qaoa_graph.Generators
module Graph = Qaoa_graph.Graph
module Metrics = Qaoa_circuit.Metrics
module Check = Qaoa_verify.Check
module Router = Qaoa_backend.Router
module Rng = Qaoa_util.Rng

type item = {
  label : string;
  device : Device.t;
  problem : Problem.t;
  strategy : Compile.strategy;
}

let params = Ansatz.params_p1 ~gamma:0.7 ~beta:0.4
let options = Compile.default_options

type kind = Er of float | Regular of int

let kinds = [ Er 0.3; Er 0.5; Er 0.7; Regular 3; Regular 4 ]

let kind_name = function
  | Er p -> Printf.sprintf "er%.1f" p
  | Regular d -> Printf.sprintf "%dreg" d

let rec graph rng n = function
  | Er p ->
    let g = Generators.erdos_renyi rng ~n ~p in
    if Graph.num_edges g = 0 then graph rng n (Er p) else g
  | Regular d -> Generators.random_regular rng ~n ~d

let range a b = List.init (b - a + 1) (fun i -> a + i)

(* One instance per cell of the grid (device, size, graph family),
   every instance under all 8 strategies.  The seed picks the graphs;
   the cells and the random calibrations of tokyo and the grid are
   fixed, so every seed carries the same mix of sizes and the same
   error rates.  3-regular graphs need an even size. *)
let draw ~seed =
  let rng = Rng.create seed and calibration = Rng.create 2020 in
  let devices =
    [
      ( Device.with_random_calibration calibration (Topologies.ibmq_20_tokyo ()),
        range 12 20 );
      (Topologies.ibmq_16_melbourne (), range 10 14);
      ( Device.with_random_calibration calibration (Topologies.grid_6x6 ()),
        range 20 36 );
    ]
  in
  List.concat_map
    (fun (device, sizes) ->
      List.concat_map
        (fun n ->
          List.concat_map
            (fun kind ->
              match kind with
              | Regular d when n * d mod 2 = 1 -> []
              | _ ->
                let problem = Problem.of_maxcut (graph rng n kind) in
                List.map
                  (fun strategy ->
                    {
                      label =
                        Printf.sprintf "%s/n%d/%s/%s" device.Device.name n
                          (kind_name kind)
                          (Compile.strategy_name strategy);
                      device;
                      problem;
                      strategy;
                    })
                  Compile.all_strategies)
            kinds)
        sizes)
    devices
  |> Array.of_list

let compile it =
  Compile.compile ~options ~strategy:it.strategy it.device it.problem params

(* Set-up: build the devices and instances, then compile a fixed
   10-cycle once per (device, strategy) so the per-device distance memos
   are warm before timing starts. *)
let setup ~seed =
  let items = draw ~seed in
  let warm = Problem.of_maxcut (Generators.cycle 10) in
  let seen = Hashtbl.create 32 in
  Array.iter
    (fun it ->
      let k = (it.device.Device.name, Compile.strategy_name it.strategy) in
      if not (Hashtbl.mem seen k) then begin
        Hashtbl.add seen k ();
        ignore (compile { it with problem = warm })
      end)
    items;
  items

(* The reference outcome of each item, checked once, untimed: every
   artifact must pass translation validation against its logical
   ansatz.  Later compiles of the same item must reproduce it. *)
type reference = {
  swaps : int;
  depth : int;
  cnots : int;
  success : float;
  words : float;  (** minor-heap words allocated by the compile *)
}

let check it =
  let r, words = Layers.minor_words (fun () -> compile it) in
  let logical = Ansatz.circuit ~measure:options.Compile.measure it.problem params in
  let report =
    Check.validate ~device:it.device ~initial:r.Compile.initial_mapping
      ~final:r.Compile.final_mapping ~swap_count:r.Compile.swap_count ~logical
      r.Compile.circuit
  in
  let ok = Check.ok report in
  if not ok then
    log "compile-paper: %s rejected: %s" it.label (Check.report_to_string report);
  ( ok,
    {
      swaps = r.Compile.swap_count;
      depth = r.Compile.metrics.Metrics.depth;
      cnots = r.Compile.metrics.Metrics.two_qubit_count;
      success = Compile.success_probability it.device r;
      words;
    } )

(* Whole passes over the draw until [seconds] have passed, so every
   run times the same mix.  [f i item] handles one item and returns the
   seconds its compile took.  Each statistic is taken per pass and the
   median over passes reported, so a pass slowed from outside the
   program does not move it: compiles per second of compile time, and
   the p50 and p99 compile latency (a pass has 1128 samples, 11 beyond
   its p99). *)
let passes ~seconds items f =
  let t0 = now () in
  let rates = Sample.create () and p50 = Sample.create () and p99 = Sample.create () in
  while Sample.length rates = 0 || now () -. t0 < seconds do
    let lat = Array.mapi f items in
    Sample.add rates (float_of_int (Array.length items) /. Array.fold_left ( +. ) 0.0 lat);
    Sample.add p50 (1e3 *. median lat);
    Sample.add p99 (1e3 *. quantile 0.99 lat)
  done;
  let med s = median (Sample.to_array s) in
  (Sample.length rates, med rates, med p50, med p99)

let run ~seed ~seconds ~trace ~dir:_ =
  let setups = Array.init 7 (fun _ -> snd (timed (fun () -> setup ~seed))) in
  let items = setup ~seed in
  let n = Array.length items in
  let checked = Array.map check items in
  let refs = Array.map snd checked in
  let failed = ref (Array.fold_left (fun k (ok, _) -> if ok then k else k + 1) 0 checked) in
  let attempted = ref n in
  let expect i what ~swaps ~depth =
    incr attempted;
    if swaps <> refs.(i).swaps || depth <> refs.(i).depth then begin
      incr failed;
      log "compile-paper: %s of %s differs from the checked compile" what
        items.(i).label
    end
  in
  let geo f = geomean (Array.map f refs) in
  (* The closed loop.  Traced, each compile is followed by its layer
     replay, so both see the same moment of the machine. *)
  let l = Layers.compile_layers () in
  let item_wall = Array.make n 0.0 and item_layers = Array.make n 0.0 in
  let replay_s = ref 0.0 in
  let npass, ops_per_s, lat_p50, lat_p99 =
    passes ~seconds items (fun i it ->
        let r, dt = timed (fun () -> compile it) in
        item_wall.(i) <- item_wall.(i) +. dt;
        expect i "a timed compile" ~swaps:r.Compile.swap_count
          ~depth:r.Compile.metrics.Metrics.depth;
        if trace then begin
          let before = Layers.total l in
          let (routed, m), rdt =
            timed (fun () ->
                Layers.replay l ~options ~strategy:it.strategy it.device
                  it.problem params)
          in
          replay_s := !replay_s +. rdt;
          item_layers.(i) <- item_layers.(i) +. (Layers.total l -. before);
          expect i "the layer replay" ~swaps:routed.Router.swap_count
            ~depth:m.Metrics.depth
        end;
        dt)
  in
  log "compile-paper: %d items x %d passes" n npass;
  let end_to_end =
    [
      ("setup_s", median setups, "s");
      ("ops_per_s", ops_per_s, "1/s");
      ("lat_p50_ms", lat_p50, "ms");
      ("lat_p99_ms", lat_p99, "ms");
      ("peak_rss_mb", peak_rss_mb "self", "MiB");
      ("depth_geomean", geo (fun r -> float_of_int r.depth), "gates");
      ("cnot_geomean", geo (fun r -> float_of_int r.cnots), "gates");
      ("success_prob_geomean", geo (fun r -> r.success), "prob");
    ]
  in
  if not trace then (end_to_end, None, !attempted, !failed)
  else begin
    let wall = Array.fold_left ( +. ) 0.0 item_wall in
    (* the part of the median compile no layer covers *)
    let unattributed_ms =
      median
        (Array.init n (fun i ->
             1e3 *. (item_wall.(i) -. item_layers.(i)) /. float_of_int npass))
    in
    let counters =
      Layers.counted (fun () -> Array.iter (fun it -> ignore (compile it)) items)
    in
    let words = Array.fold_left (fun acc r -> acc +. r.words) 0.0 refs /. float_of_int n in
    let layer_metrics =
      [
        ("core.mapping_ms", Layers.ms_per_call l.Layers.mapping, "ms");
        ("core.ordering_ms", Layers.ms_per_call l.Layers.ordering, "ms");
        ("backend.route_ms", Layers.ms_per_call l.Layers.route, "ms");
        ("core.ic_ms", Layers.ms_per_call l.Layers.ic, "ms");
        ("circuit.decompose_ms", Layers.ms_per_call l.Layers.decompose, "ms");
        ("circuit.metrics_ms", Layers.ms_per_call l.Layers.metrics, "ms");
        ("compile.unattributed_share", 1.0 -. (Layers.total l /. wall), "share");
        ("lat_p50.unattributed_ms", unattributed_ms, "ms");
        ("trace.overhead_share", 1.0 -. (wall /. !replay_s), "share");
        ("gc.minor_words_per_op", words, "count");
      ]
      @ List.map (fun (name, v) -> (name, float_of_int v, "count")) counters
    in
    (end_to_end, Some layer_metrics, !attempted, !failed)
  end
