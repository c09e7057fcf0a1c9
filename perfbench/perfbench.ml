(* The repository benchmark.

     perfbench --workload compile-paper|serve-hot
               --seed N --seconds S --trace 0|1

   Prints a human-readable report on stderr and, as the last line of
   stdout, one JSON object with [correct], [attempted], [failed] and
   [metrics]: the end-to-end metrics with [--trace 0], the per-layer
   metrics with [--trace 1].  Exits 1 when any output was wrong.  See
   README.md in this directory for the workloads and metrics. *)

open Common

(* Metric names and units, in report order, as BENCHMARK.json at the
   checkout root declares them. *)
let declared key =
  let text = In_channel.with_open_bin "BENCHMARK.json" In_channel.input_all in
  match Json.member key (Json.of_string text) with
  | Some (Json.List l) ->
    List.filter_map
      (fun m ->
        match (Json.member "name" m, Json.member "unit" m) with
        | Some (Json.String n), Some (Json.String u) -> Some (n, u)
        | _ -> None)
      l
  | _ -> failwith ("BENCHMARK.json declares no " ^ key)

(* The measured metrics in declared order.  A workload whose traffic
   never calls a layer reports 0 for it; every end-to-end metric must
   have been measured. *)
let in_order ~fill declared measured =
  List.map
    (fun (name, unit) ->
      match List.find_opt (fun (n, _, _) -> n = name) measured with
      | Some (n, v, _) -> (n, v, unit)
      | None when fill -> (name, 0.0, unit)
      | None -> failwith ("no measurement of " ^ name))
    declared

let report title metrics =
  log "%s" title;
  List.iter (fun (name, v, unit) -> log "  %-36s %14.6g %s" name v unit) metrics

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME compile-paper | serve-hot");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S how long one run measures");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload NAME --seed N --seconds S --trace 0|1";
  let trace = !trace = 1 in
  let dir = fresh_dir (Filename.concat run_root !workload) in
  let run =
    match !workload with
    | "compile-paper" -> Paper.run
    | "serve-hot" -> Serve_load.hot
    | w ->
      log "perfbench: unknown workload %S" w;
      exit 2
  in
  let end_to_end, layers, attempted, failed =
    run ~seed:!seed ~seconds:!seconds ~trace ~dir
  in
  let ok_share =
    if attempted = 0 then 0.0
    else float_of_int (attempted - failed) /. float_of_int attempted
  in
  let end_to_end =
    in_order ~fill:false (declared "end_to_end")
      (end_to_end @ [ ("ok_share", ok_share, "share") ])
  in
  report (Printf.sprintf "%s seed %d: end-to-end (%d attempted, %d failed)"
            !workload !seed attempted failed) end_to_end;
  let metrics =
    match layers with
    | Some l ->
      let l = in_order ~fill:true (declared "per_layer") l in
      report "per layer:" l;
      l
    | None -> end_to_end
  in
  rm_rf dir;
  (try Unix.rmdir run_root with Unix.Unix_error _ -> ());
  let correct = failed = 0 && attempted > 0 in
  print_endline (result_line ~correct ~attempted ~failed metrics);
  if not correct then exit 1
