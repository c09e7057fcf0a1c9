(* Per-layer attribution from outside the program: the compile pipeline
   of [Compile.compile] replayed as separate calls into each layer's
   public functions, each call timed on its own.  Nothing here adds a
   span inside the library; the replay draws from the RNG in the same
   order as [Compile.compile], so it compiles the same circuit, which
   the callers check. *)

open Common
module Compile = Qaoa_core.Compile
module Ansatz = Qaoa_core.Ansatz
module Problem = Qaoa_core.Problem
module Router = Qaoa_backend.Router
module Device = Qaoa_hardware.Device
module Metrics = Qaoa_circuit.Metrics
module Decompose = Qaoa_circuit.Decompose
module Rng = Qaoa_util.Rng

(* Busy time and call count of one layer. *)
type acc = { mutable s : float; mutable calls : int }

let acc () = { s = 0.0; calls = 0 }

let add a dt =
  a.s <- a.s +. dt;
  a.calls <- a.calls + 1

let time a f =
  let v, dt = timed f in
  add a dt;
  v

(* Mean milliseconds per call; 0 when the workload made no such call. *)
let ms_per_call a = if a.calls = 0 then 0.0 else 1e3 *. a.s /. float_of_int a.calls

type compile_layers = {
  mapping : acc;
  ordering : acc;
  route : acc;
  ic : acc;
  decompose : acc;
  metrics : acc;
}

let compile_layers () =
  {
    mapping = acc ();
    ordering = acc ();
    route = acc ();
    ic = acc ();
    decompose = acc ();
    metrics = acc ();
  }

(* Busy time of the replayed pipeline.  [decompose] is left out: it
   times on its own the decomposition that [Metrics.of_circuit] does
   inside [metrics], as in [Compile.compile]. *)
let total l = l.mapping.s +. l.ordering.s +. l.route.s +. l.ic.s +. l.metrics.s

(* Replay one [Compile.compile ~options ~strategy device problem params]
   layer by layer; returns the routed result and its metrics. *)
let replay l ~(options : Compile.options) ~strategy device problem params =
  let rng = Rng.create options.Compile.seed in
  let p = Ansatz.levels params in
  let initial =
    time l.mapping (fun () ->
        match strategy with
        | Compile.Naive -> Qaoa_core.Naive.initial_mapping rng device problem
        | Compile.Greedy_v -> Qaoa_core.Greedy_mapper.greedy_v rng device problem
        | Compile.Greedy_e -> Qaoa_core.Greedy_mapper.greedy_e rng device problem
        | Compile.Vqa_alloc -> Qaoa_core.Vqa.initial_mapping rng device problem
        | Compile.Qaim | Compile.Ip | Compile.Ic _ | Compile.Vic _ ->
          Qaoa_core.Qaim.initial_mapping ~config:options.Compile.qaim rng device
            problem)
  in
  let orders =
    time l.ordering (fun () ->
        match strategy with
        | Compile.Naive | Compile.Greedy_v | Compile.Greedy_e
        | Compile.Vqa_alloc | Compile.Qaim ->
          Some (List.init p (fun _ -> Qaoa_core.Naive.cphase_order rng problem))
        | Compile.Ip -> Some (List.init p (fun _ -> Qaoa_core.Ip.order rng problem))
        | Compile.Ic _ | Compile.Vic _ -> None)
  in
  let routed =
    match (strategy, orders) with
    | _, Some orders ->
      let circuit =
        Ansatz.circuit ~measure:options.Compile.measure ~orders problem params
      in
      time l.route (fun () ->
          Router.route ~config:options.Compile.router ~device ~initial circuit)
    | (Compile.Ic packing_limit | Compile.Vic packing_limit), None ->
      let config =
        {
          Qaoa_core.Ic.packing_limit;
          variation_aware =
            (match strategy with Compile.Vic _ -> true | _ -> false);
          router = options.Compile.router;
        }
      in
      time l.ic (fun () ->
          Qaoa_core.Ic.compile ~config ~measure:options.Compile.measure rng
            device ~initial problem params)
    | _, None -> assert false
  in
  ignore (time l.decompose (fun () -> Decompose.circuit routed.Router.circuit));
  (routed, time l.metrics (fun () -> Metrics.of_circuit routed.Router.circuit))

(* Work counters the program already keeps ([Qaoa_obs] counters are
   recorded only while telemetry is on, so [counted] switches it on
   around [f] alone). *)
let counter_names =
  [
    "router.swaps_inserted"; "router.lookahead_candidates_scored";
    "qaim.candidates_scored";
  ]

let counted f =
  let module Config = Qaoa_obs.Config in
  let module Registry = Qaoa_obs.Metrics_registry in
  Registry.reset ();
  Qaoa_obs.Trace.reset ();
  Config.set_metrics (Some Config.Json);
  Fun.protect
    ~finally:(fun () ->
      Config.set_metrics None;
      Qaoa_obs.Trace.reset ())
    (fun () ->
      f ();
      List.map (fun n -> (n, Registry.counter n)) counter_names)

(* Words allocated on the minor heap by [f ()]. *)
let minor_words f =
  let w0 = Gc.minor_words () in
  let v = f () in
  (v, Gc.minor_words () -. w0)
