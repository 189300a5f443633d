(* The TANGO ledger: four workloads, their end-to-end metrics, and a
   traced run that decomposes each op into per-layer metrics.  See
   README.md in this directory.

     ledger.exe [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--out DIR]
     ledger.exe --smoke

   The last line of standard output is the run's result:
   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}. *)

let workloads =
  [
    ("paper_scan", Paper_scan.run);
    ("oltp_mixed", Oltp_mixed.run);
    ("adhoc_mix", Adhoc_mix.run);
    ("serve_sharded", Serve_sharded.run);
  ]

let result_line (r : Outcome.t) =
  let open Tango_obs.Json in
  let metric name unit v = (name, Obj [ ("value", Float v); ("unit", String unit) ]) in
  let metrics =
    match r.Outcome.layers with
    | Some l -> List.map (fun (name, unit, _, v) -> metric name unit v) (Layers.metrics l)
    | None ->
        List.map
          (fun (name, v) -> metric name (List.assoc name Outcome.end_to_end_units) v)
          r.Outcome.metrics
  in
  to_string
    (Obj
       [
         ("correct", Bool (r.Outcome.failed = 0 && r.Outcome.attempted > 0));
         ("attempted", Int r.Outcome.attempted);
         ("failed", Int r.Outcome.failed);
         ("metrics", Obj metrics);
       ])

let report name (r : Outcome.t) =
  Printf.printf "== %s: %d ops, %d failed\n" name r.Outcome.attempted r.Outcome.failed;
  List.iter
    (fun (k, v) ->
      Printf.printf "  %-28s %14.4f %s\n" k v (List.assoc k Outcome.end_to_end_units))
    r.Outcome.metrics;
  List.iter (fun (k, v) -> Printf.printf "  %-28s %s\n" k v) r.Outcome.notes;
  Option.iter
    (fun l ->
      List.iter
        (fun (k, unit, _, v) -> Printf.printf "  %-40s %14.4f %s\n" k v unit)
        (Layers.metrics l))
    r.Outcome.layers

let write_trace ~dir docs =
  let path = Filename.concat dir "TRACE_ledger.json" in
  let oc = open_out path in
  output_string oc (Tango_obs.Json.to_string (Tango_obs.Json.List docs));
  output_char oc '\n';
  close_out oc;
  Printf.printf "# spans written to %s\n" path

(* Every workload at its smallest size, a few ops each, untraced then
   traced, every output checked: a broken or wrong benchmark fails. *)
let smoke () =
  let ok = ref true in
  List.iter
    (fun (name, run) ->
      List.iter
        (fun trace ->
          let r = run { Common.seed = 1; seconds = 30.0; trace; smoke = true } in
          if r.Outcome.failed > 0 || r.Outcome.attempted = 0 then begin
            ok := false;
            Printf.eprintf "ledger smoke: %s (trace %b): %d of %d ops failed\n" name
              trace r.Outcome.failed r.Outcome.attempted
          end)
        [ false; true ])
    workloads;
  Printf.printf "ledger smoke: %s\n" (if !ok then "ok" else "FAILED");
  exit (if !ok then 0 else 1)

let () =
  let workload = ref "all" and seed = ref 1 and seconds = ref 20.0 in
  let trace = ref 0 and out = ref "." and smoke_run = ref false in
  Arg.parse
    [
      ( "--workload",
        Arg.Set_string workload,
        "NAME  " ^ String.concat ", " (List.map fst workloads) ^ ", or all (default)" );
      ("--seed", Arg.Set_int seed, "N  seed of the workload's op stream (default 1)");
      ("--seconds", Arg.Set_float seconds, "S  length of the measured window (default 20)");
      ("--trace", Arg.Set_int trace, "0|1  1 replays the stream layer by layer");
      ("--out", Arg.Set_string out, "DIR  where the traced run writes TRACE_ledger.json");
      ("--smoke", Arg.Set smoke_run, "  quick check of every workload (exit 1 on failure)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "ledger: the TANGO benchmark";
  if !smoke_run then smoke ();
  if !trace <> 0 && !trace <> 1 then begin
    prerr_endline "ledger: --trace takes 0 or 1";
    exit 2
  end;
  let selected =
    match List.assoc_opt !workload workloads with
    | Some run -> [ (!workload, run) ]
    | None when !workload = "all" -> workloads
    | None ->
        Printf.eprintf "ledger: unknown workload %S (known: %s, all)\n" !workload
          (String.concat ", " (List.map fst workloads));
        exit 2
  in
  let params =
    { Common.seed = !seed; seconds = !seconds; trace = !trace = 1; smoke = false }
  in
  let results =
    List.map
      (fun (name, run) ->
        Tango_obs.Registry.reset ();
        let r = run params in
        report name r;
        (name, r))
      selected
  in
  if params.Common.trace then
    write_trace ~dir:!out
      (List.filter_map
         (fun (name, r) -> Option.map (Layers.spans_json ~workload:name) r.Outcome.layers)
         results);
  List.iter (fun (_, r) -> print_endline (result_line r)) results
