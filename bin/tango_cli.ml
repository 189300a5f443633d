(* tango — command-line front end to the TANGO temporal middleware.

   The embedded DBMS is in-memory, so every invocation builds its database
   from generator options and/or CSV files, then runs queries against it.

   Examples:

     # staffing counts over time on a generated UIS workload
     tango run --scale 0.01 \
       "VALIDTIME SELECT PosID, COUNT(*) AS CNT FROM POSITION GROUP BY PosID ORDER BY PosID"

     # just show the chosen plan and the SQL shipped to the DBMS
     tango explain --scale 0.01 "VALIDTIME SELECT ..."

     # interactive session (one query per line, 'quit' exits)
     tango repl --scale 0.01

   CSV tables: --csv NAME=FILE loads FILE as table NAME; the header must be
   "Col:TYPE,Col:TYPE,..." with TYPE one of INT, FLOAT, VARCHAR, DATE,
   BOOL.  DATE cells are ISO dates (1997-02-01). *)

open Tango_rel
open Tango_core
open Cmdliner

(* ---------------- database setup ---------------- *)

let load_csv db spec =
  match String.index_opt spec '=' with
  | None -> failwith ("--csv expects NAME=FILE, got " ^ spec)
  | Some i ->
      let name = String.sub spec 0 i in
      let path = String.sub spec (i + 1) (String.length spec - i - 1) in
      Tango_dbms.Database.load_relation db name (Csv.read_file path);
      ignore (Tango_dbms.Database.analyze db name)

let setup_logs verbose =
  Logs.set_reporter (Logs.format_reporter ());
  if verbose then Logs.Src.set_level Middleware.log_src (Some Logs.Debug)

let setup ~scale ~csvs ~shards ~calibrate ~trace ?(profiling = false)
    ?(plan_cache = false) () =
  let config =
    Middleware.Config.default
    |> Middleware.Config.with_tracing trace
    |> Middleware.Config.with_profiling profiling
    |> Middleware.Config.with_plan_cache plan_cache
  in
  let mw =
    if shards > 1 then begin
      if scale <= 0.0 then
        failwith "--shards needs a generated workload (give --scale > 0)";
      let topo = Tango_workload.Uis.load_sharded ~scale ~shards () in
      (* CSV tables are replicated to every backend, like EMPLOYEE *)
      List.iter
        (fun b ->
          match Tango_dbms.Backend.database b with
          | Some db -> List.iter (load_csv db) csvs
          | None -> ())
        (Tango_dbms.Topology.backends topo);
      Middleware.connect_topology ~config topo
    end
    else begin
      let db = Tango_dbms.Database.create () in
      if scale > 0.0 then Tango_workload.Uis.load ~scale db;
      List.iter (load_csv db) csvs;
      Middleware.connect ~config db
    end
  in
  if calibrate then begin
    Fmt.epr "calibrating cost factors...@.";
    Middleware.calibrate mw
  end;
  mw

(* ---------------- machine-readable output ---------------- *)

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 32 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* Every subcommand takes the same flag: bare [--json] prints the summary
   to stdout, [--json FILE] writes it to FILE. *)
let json_arg =
  Arg.(value
       & opt ~vopt:(Some "-") (some string) None
       & info [ "json" ] ~docv:"FILE"
           ~doc:"Emit a machine-readable JSON summary to $(docv); omit \
                 $(docv) (or pass '-') for stdout.")

let emit_json dest body =
  match dest with
  | None -> ()
  | Some "-" ->
      print_string body;
      print_newline ()
  | Some path ->
      let oc = open_out path in
      output_string oc body;
      output_char oc '\n';
      close_out oc

(* Per-backend traffic, for sharded sessions: name, roundtrips, tuples. *)
let backends_json mw =
  String.concat ","
    (List.map
       (fun b ->
         Printf.sprintf
           "{\"name\":\"%s\",\"roundtrips\":%d,\"tuples_shipped\":%d,\
            \"bytes_shipped\":%d}"
           (json_escape (Tango_dbms.Backend.name b))
           (Tango_dbms.Backend.roundtrips b)
           (Tango_dbms.Backend.tuples_shipped b)
           (Tango_dbms.Backend.bytes_shipped b))
       (Tango_dbms.Topology.backends (Middleware.topology mw)))

let report_json mw (report : Middleware.report) =
  let cache =
    match report.Middleware.cache with
    | None -> "null"
    | Some c ->
        Printf.sprintf "{\"hit\":%b,\"class\":\"%s\"}" c.Middleware.cache_hit
          (json_escape c.Middleware.cache_class)
  in
  Printf.sprintf
    "{\"rows\":%d,\"optimize_us\":%.1f,\"execute_us\":%.1f,\
     \"estimated_cost_us\":%.1f,\"classes\":%d,\"elements\":%d,\
     \"plan\":\"%s\",\"cache\":%s,\"backends\":[%s]}"
    (Relation.cardinality report.Middleware.result)
    report.Middleware.optimize_us report.Middleware.execute_us
    report.Middleware.estimated_cost_us report.Middleware.classes
    report.Middleware.elements
    (json_escape (Tango_volcano.Physical.signature report.Middleware.physical))
    cache (backends_json mw)

(* ---------------- output ---------------- *)

let print_result ?(limit = 40) (r : Relation.t) =
  let n = Relation.cardinality r in
  let shown =
    if n <= limit then r
    else Relation.of_list (Relation.schema r)
        (List.filteri (fun i _ -> i < limit) (Relation.to_list r))
  in
  Fmt.pr "%a" Relation.pp shown;
  if n > limit then Fmt.pr "... (%d rows total)@." n
  else Fmt.pr "(%d rows)@." n

let print_analysis (report : Middleware.report) =
  match report.Middleware.analysis with
  | Some a ->
      Fmt.pr "@.estimated vs actual:@.%s@?" (Tango_profile.Analyze.to_string a)
  | None -> ()

let run_query ?json ?(params = []) mw ~explain_only ~analyze ~verbose sql =
  if explain_only then begin
    if analyze then begin
      (* EXPLAIN ANALYZE: execute the query (profiling is on) and print
         the annotated plan instead of the result rows *)
      let report = Middleware.query_params mw sql params in
      Fmt.pr "physical plan (estimated %.0f us, actual %.0f us):@.%s@."
        report.Middleware.estimated_cost_us report.Middleware.execute_us
        (Tango_volcano.Physical.to_string report.Middleware.physical);
      print_analysis report;
      emit_json json (report_json mw report)
    end
    else begin
      let initial =
        Tango_tsql.Compile.initial_plan ~lookup:(Middleware.schema_lookup mw)
          sql
      in
      let order = Tango_tsql.Compile.required_order sql in
      let res = Middleware.optimize mw ~required_order:order initial in
      match res.Tango_volcano.Search.plan with
      | None ->
          Fmt.pr "no feasible plan@.";
          emit_json json "{\"feasible\":false}"
      | Some plan ->
          Fmt.pr "physical plan (estimated %.0f us):@.%s@."
            plan.Tango_volcano.Physical.total_cost
            (Tango_volcano.Physical.to_string plan);
          let exec, _ = Exec_plan.of_physical (Middleware.database mw) plan in
          Fmt.pr "execution-ready plan:@.%s@." (Exec_plan.to_string exec);
          Fmt.pr "%d classes, %d elements, optimized in %.1f ms@."
            res.Tango_volcano.Search.classes res.Tango_volcano.Search.elements
            (res.Tango_volcano.Search.time_us /. 1000.0);
          emit_json json
            (Printf.sprintf
               "{\"feasible\":true,\"estimated_cost_us\":%.1f,\
                \"optimize_us\":%.1f,\"classes\":%d,\"elements\":%d,\
                \"plan\":\"%s\"}"
               plan.Tango_volcano.Physical.total_cost
               res.Tango_volcano.Search.time_us
               res.Tango_volcano.Search.classes
               res.Tango_volcano.Search.elements
               (json_escape (Tango_volcano.Physical.signature plan)))
    end
  end
  else begin
    let report = Middleware.query_params mw sql params in
    if verbose then begin
      Fmt.pr "plan:@.%s@."
        (Tango_volcano.Physical.to_string report.Middleware.physical);
      Fmt.pr "optimization: %.1f ms (%d classes, %d elements)@."
        (report.Middleware.optimize_us /. 1000.0)
        report.Middleware.classes report.Middleware.elements
    end;
    print_result report.Middleware.result;
    Fmt.pr "executed in %.1f ms@." (report.Middleware.execute_us /. 1000.0);
    if analyze then print_analysis report;
    (match report.Middleware.trace with
    | Some span -> Fmt.pr "@.%s@?" (Tango_obs.Trace.to_string span)
    | None -> ());
    emit_json json (report_json mw report)
  end

let catch_errors f =
  try
    f ();
    0
  with
  | Tango_sql.Parser.Parse_error m -> Fmt.epr "parse error: %s@." m; 1
  | Tango_sql.Lexer.Lex_error m -> Fmt.epr "lex error: %s@." m; 1
  | Tango_tsql.Compile.Unsupported m -> Fmt.epr "unsupported: %s@." m; 1
  | Tango_dbms.Executor.Sql_error m -> Fmt.epr "SQL error: %s@." m; 1
  | Tango_dbms.Catalog.No_such_table t -> Fmt.epr "no such table: %s@." t; 1
  | Tango_algebra.Op.Ill_formed m -> Fmt.epr "ill-formed query: %s@." m; 1
  | Middleware.No_plan m -> Fmt.epr "no plan: %s@." m; 1
  | Failure m -> Fmt.epr "error: %s@." m; 1

(* ---------------- commands ---------------- *)

let scale_arg =
  Arg.(value & opt float 0.01
       & info [ "scale" ] ~docv:"S"
           ~doc:"Generate the UIS workload (POSITION, EMPLOYEE) scaled by $(docv); 0 disables generation.")

let csv_arg =
  Arg.(value & opt_all string []
       & info [ "csv" ] ~docv:"NAME=FILE"
           ~doc:"Load a CSV file as a table (typed header Col:TYPE,...). Repeatable.")

let shards_arg =
  Arg.(value & opt int 1
       & info [ "shards" ] ~docv:"N"
           ~doc:"Shard the generated POSITION table across $(docv) \
                 in-process backends, range-partitioned on the period \
                 start T1 at the data's quantiles; EMPLOYEE and CSV \
                 tables are replicated to every backend.")

let calibrate_arg =
  Arg.(value & flag & info [ "calibrate" ] ~doc:"Calibrate cost factors before running.")

let verbose_arg =
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Also print the chosen plan.")

let trace_arg =
  Arg.(value & flag
       & info [ "trace" ]
           ~doc:"Collect and print an EXPLAIN-ANALYZE-style trace of the \
                 pipeline: parse/optimize/translate/execute phases with the \
                 measured operator tree (wall time, tuples, page reads, \
                 round trips per operator).")

let trace_out_arg =
  Arg.(value & opt (some string) None
       & info [ "trace-out" ] ~docv:"FILE"
           ~doc:"Write the pipeline trace as Chrome trace-event JSON to \
                 $(docv) (open in chrome://tracing or Perfetto).  Implies \
                 $(b,--trace).")

let sql_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"SQL")

let analyze_arg =
  Arg.(value & flag
       & info [ "analyze" ]
           ~doc:"Profile the execution and print the annotated plan: \
                 per-operator estimated vs actual rows, time, page reads \
                 and round trips, with q-errors.")

let param_arg =
  Arg.(value & opt_all string []
       & info [ "param" ] ~docv:"VALUE"
           ~doc:"Bind a parameter value, positionally ($(docv) binds \
                 \\$1, the next --param \\$2, ...), for SQL carrying ? \
                 or \\$n markers.  Values type naturally: integers, \
                 floats, true/false, null, YYYY-MM-DD dates; anything \
                 else is a string.  Repeatable.")

let plan_cache_arg =
  Arg.(value & flag
       & info [ "plan-cache" ]
           ~doc:"Cache optimized plans keyed by normalized query text; a \
                 re-submitted query skips parse and optimize.  Always on \
                 for $(b,serve).")

let run_term =
  let f scale csvs shards calibrate verbose trace
      trace_out analyze plan_cache params json sql =
    catch_errors (fun () ->
        setup_logs verbose;
        let trace = trace || trace_out <> None in
        let mw =
          setup ~scale ~csvs ~shards ~calibrate
            ~trace ~profiling:analyze ~plan_cache ()
        in
        let params = List.map Tango_sql.Parameterize.value_of_string params in
        run_query ?json ~params mw ~explain_only:false ~analyze ~verbose sql;
        match trace_out with
        | None -> ()
        | Some path -> (
            match Middleware.last_trace mw with
            | None -> Fmt.epr "no trace collected@."
            | Some span ->
                let oc = open_out path in
                output_string oc (Tango_monitor.Chrome_trace.to_string span);
                output_char oc '\n';
                close_out oc;
                Fmt.pr "trace written to %s@." path))
  in
  Term.(const f $ scale_arg $ csv_arg $ shards_arg $ calibrate_arg
        $ verbose_arg $ trace_arg $ trace_out_arg
        $ analyze_arg $ plan_cache_arg $ param_arg $ json_arg $ sql_arg)

let run_cmd =
  let doc = "Run a temporal SQL query through the middleware." in
  Cmd.v (Cmd.info "run" ~doc) run_term

let explain_cmd =
  let doc =
    "Optimize a query and print the chosen plan.  With $(b,--analyze), also \
     execute it and annotate every operator with estimated vs actual \
     cardinality, time and q-error."
  in
  let f scale csvs shards calibrate analyze plan_cache
      json sql =
    catch_errors (fun () ->
        let mw =
          setup ~scale ~csvs ~shards ~calibrate
            ~trace:false ~profiling:analyze ~plan_cache ()
        in
        run_query ?json mw ~explain_only:true ~analyze ~verbose:false sql)
  in
  Cmd.v (Cmd.info "explain" ~doc)
    Term.(const f $ scale_arg $ csv_arg $ shards_arg
          $ calibrate_arg $ analyze_arg $ plan_cache_arg
          $ json_arg $ sql_arg)

let repl_cmd =
  let doc = "Interactive session: one query per line; 'quit' exits." in
  let f scale csvs shards calibrate verbose trace
      plan_cache =
    let mw =
      setup ~scale ~csvs ~shards ~calibrate ~trace
        ~plan_cache ()
    in
    Fmt.pr "tango> @?";
    (try
       let rec loop () =
         match String.trim (input_line stdin) with
         | "quit" | "exit" -> ()
         | "" ->
             Fmt.pr "tango> @?";
             loop ()
         | sql ->
             ignore
               (catch_errors (fun () ->
                    run_query mw ~explain_only:false ~analyze:false ~verbose sql));
             Fmt.pr "tango> @?";
             loop ()
       in
       loop ()
     with End_of_file -> ());
    0
  in
  Cmd.v (Cmd.info "repl" ~doc)
    Term.(const f $ scale_arg $ csv_arg $ shards_arg
          $ calibrate_arg $ verbose_arg $ trace_arg
          $ plan_cache_arg)

(* ---------------- check (plan verification) ---------------- *)

module Diag = Tango_verify.Diag

(* Lint one query: the initial logical plan, then (via the session's
   verify_plans mode) every rule application and the chosen physical plan.
   Never raises — failures become diagnostics so --all keeps going. *)
let check_one mw sql : Diag.t list =
  match
    ( Tango_tsql.Compile.initial_plan ~lookup:(Middleware.schema_lookup mw) sql,
      Tango_tsql.Compile.required_order sql )
  with
  | exception Tango_sql.Parser.Parse_error m ->
      [ Diag.v Diag.Error "schema" ~path:"<query>" ("does not parse: " ^ m) ]
  | exception Tango_sql.Lexer.Lex_error m ->
      [ Diag.v Diag.Error "schema" ~path:"<query>" ("does not lex: " ^ m) ]
  | exception Tango_tsql.Compile.Unsupported m ->
      [ Diag.v Diag.Error "schema" ~path:"<query>" ("unsupported: " ^ m) ]
  | exception Tango_dbms.Catalog.No_such_table t ->
      [ Diag.v Diag.Error "schema" ~path:"<query>" ("no such table: " ^ t) ]
  | initial, required_order -> (
      let logical =
        Tango_verify.Check.check_logical
          ~stats_env:(Middleware.stats_env mw)
          ~expect_root:Tango_algebra.Op.Mw initial
      in
      match Middleware.optimize mw ~required_order initial with
      | exception Tango_algebra.Op.Ill_formed m ->
          logical
          @ [ Diag.v Diag.Error "schema" ~path:"<query>" ("ill-formed: " ^ m) ]
      | res ->
          logical
          @ Middleware.last_diagnostics mw
          @
          (match res.Tango_volcano.Search.plan with
          | Some _ -> []
          | None ->
              [
                Diag.v Diag.Error "boundary" ~path:"<query>"
                  ~hint:"no physical plan satisfies the root requirement"
                  "optimizer found no feasible plan";
              ]))

let all_arg =
  Arg.(value & flag
       & info [ "all" ]
           ~doc:"Check the whole built-in UIS workload instead of one query.")

let per_rule_arg =
  Arg.(value & flag
       & info [ "per-rule" ]
           ~doc:"Additionally verify the memo after every transformation-rule \
                 application and attribute findings to the offending rule \
                 (verify_plans=per-rule).")

let check_sql_arg =
  Arg.(value & pos 0 (some string) None & info [] ~docv:"SQL")

let check_cmd =
  let doc =
    "Statically verify query plans: schema/type well-formedness, transfer \
     boundaries and SQL translatability, ordering-property propagation, and \
     estimate sanity.  Exits nonzero when any error-severity diagnostic is \
     found."
  in
  let f scale csvs shards all per_rule json sql =
    setup_logs false;
    let queries =
      match (all, sql) with
      | true, _ -> Tango_workload.Queries.workload
      | false, Some sql -> [ ("query", sql) ]
      | false, None ->
          Fmt.epr "tango check: give a SQL argument or --all@.";
          exit 2
    in
    let mw =
      setup ~scale ~csvs ~shards ~calibrate:false ~trace:false ()
    in
    Middleware.set_config mw
      (Middleware.Config.with_verify_plans
         (if per_rule then Middleware.Config.Verify_per_rule
          else Middleware.Config.Verify_final)
         (Middleware.config mw));
    let results = List.map (fun (name, sql) -> (name, check_one mw sql)) queries in
    let total_errors = ref 0 and total_warnings = ref 0 in
    List.iter
      (fun (name, diags) ->
        let errors = Diag.count_errors diags in
        let warnings =
          List.length
            (List.filter (fun d -> d.Diag.severity = Diag.Warning) diags)
        in
        total_errors := !total_errors + errors;
        total_warnings := !total_warnings + warnings;
        if errors > 0 then
          Fmt.pr "%s: FAILED (%d error%s, %d warning%s)@." name errors
            (if errors = 1 then "" else "s")
            warnings
            (if warnings = 1 then "" else "s")
        else Fmt.pr "%s: ok (%d warning%s)@." name warnings
            (if warnings = 1 then "" else "s");
        List.iter (fun d -> Fmt.pr "  %s@." (Diag.to_string d)) diags)
      results;
    Fmt.pr "%d quer%s checked: %d error%s, %d warning%s@."
      (List.length results)
      (if List.length results = 1 then "y" else "ies")
      !total_errors
      (if !total_errors = 1 then "" else "s")
      !total_warnings
      (if !total_warnings = 1 then "" else "s");
    emit_json json
      ("["
      ^ String.concat ","
          (List.map
             (fun (name, diags) ->
               Printf.sprintf
                 "{\"query\":\"%s\",\"errors\":%d,\"diagnostics\":%s}"
                 (json_escape name)
                 (Diag.count_errors diags)
                 (Diag.list_to_json diags))
             results)
      ^ "]");
    if !total_errors > 0 then 1 else 0
  in
  Cmd.v (Cmd.info "check" ~doc)
    Term.(const f $ scale_arg $ csv_arg $ shards_arg $ all_arg $ per_rule_arg
          $ json_arg $ check_sql_arg)

let tables_cmd =
  let doc = "List the tables of the generated/loaded database with statistics." in
  let f scale csvs shards =
    catch_errors (fun () ->
        let mw =
          setup ~scale ~csvs ~shards ~calibrate:false ~trace:false ()
        in
        let db = Middleware.database mw in
        List.iter
          (fun name ->
            match Tango_dbms.Database.stats_of db name with
            | Some st -> Fmt.pr "%a@.@." Tango_dbms.Stat.pp st
            | None -> Fmt.pr "%s (not analyzed)@." name)
          (Tango_dbms.Catalog.table_names (Tango_dbms.Database.catalog db)))
  in
  Cmd.v (Cmd.info "tables" ~doc)
    Term.(const f $ scale_arg $ csv_arg $ shards_arg)

(* ---------------- serve (monitoring endpoint) ---------------- *)

let port_arg =
  Arg.(value & opt int 7117
       & info [ "port" ] ~docv:"PORT"
           ~doc:"TCP port to listen on; 0 picks a free port.")

let host_arg =
  Arg.(value & opt string "127.0.0.1"
       & info [ "host" ] ~docv:"ADDR" ~doc:"Address to bind.")

let slo_latency_arg =
  Arg.(value & opt float 100.0
       & info [ "slo-latency-ms" ] ~docv:"MS"
           ~doc:"Per-query latency objective in milliseconds.")

let sample_every_arg =
  Arg.(value & opt int 1
       & info [ "sample-every" ] ~docv:"N"
           ~doc:"Keep every $(docv)-th query in the event log (1 = all); \
                 failures and slow queries are always kept.")

let log_capacity_arg =
  Arg.(value & opt int 256
       & info [ "log-capacity" ] ~docv:"N"
           ~doc:"Event-log ring capacity (oldest records evicted first).")

let slow_keep_arg =
  Arg.(value & opt float 0.0
       & info [ "slow-keep-ms" ] ~docv:"MS"
           ~doc:"Always keep queries at least this slow in the event log, \
                 regardless of sampling (0 disables the override).")

let max_requests_arg =
  Arg.(value & opt (some int) None
       & info [ "max-requests" ] ~docv:"N"
           ~doc:"Exit after serving $(docv) connections (for smoke tests).")

let serve_cmd =
  let doc =
    "Serve the monitoring endpoint over HTTP: GET /metrics (Prometheus), \
     /healthz, /slo (burn-rate verdict), /queries?n=K (sampled per-query \
     event log), /trace (Chrome trace JSON of the last run), and POST \
     /query to run temporal SQL from the request body."
  in
  let f scale csvs shards calibrate port host
      slo_latency_ms sample_every log_capacity slow_keep_ms max_requests =
    catch_errors (fun () ->
        (* Validate flags up front: a bad value should produce one clear
           line, not an [Invalid_argument] backtrace from deep inside
           Event_log or the socket bind. *)
        if port < 0 || port > 65535 then
          failwith
            (Printf.sprintf "--port must be in 0..65535 (got %d)" port);
        if log_capacity <= 0 then
          failwith
            (Printf.sprintf "--log-capacity must be positive (got %d)"
               log_capacity);
        if sample_every <= 0 then
          failwith
            (Printf.sprintf "--sample-every must be positive (got %d)"
               sample_every);
        (match max_requests with
        | Some n when n <= 0 ->
            failwith
              (Printf.sprintf "--max-requests must be positive (got %d)" n)
        | _ -> ());
        if slo_latency_ms <= 0.0 then
          failwith
            (Printf.sprintf "--slo-latency-ms must be positive (got %g)"
               slo_latency_ms);
        if slow_keep_ms < 0.0 then
          failwith
            (Printf.sprintf "--slow-keep-ms must be non-negative (got %g)"
               slow_keep_ms);
        setup_logs false;
        (* one session serves every request: the plan cache persists
           across POST /query submissions *)
        let mw =
          setup ~scale ~csvs ~shards ~calibrate
            ~trace:true ~profiling:true ~plan_cache:true ()
        in
        let log =
          Tango_monitor.Event_log.create ~capacity:log_capacity ~sample_every
            ~slow_keep_us:(slow_keep_ms *. 1000.0) ()
        in
        let slo =
          Tango_monitor.Slo.create
            ~objective:
              {
                Tango_monitor.Slo.default_objective with
                Tango_monitor.Slo.latency_us = slo_latency_ms *. 1000.0;
              }
            ()
        in
        let endpoints = Tango_monitor.Endpoints.create ~log ~slo mw in
        let sock = Tango_monitor.Http.listen ~host ~port () in
        (* SIGINT/SIGTERM set a flag; the blocking accept returns with
           EINTR and the loop re-checks it — the in-flight request (the
           loop is sequential) is drained first, then we fall through to
           the final snapshot below. *)
        let stop = ref false in
        let stop_handler = Sys.Signal_handle (fun _ -> stop := true) in
        Sys.set_signal Sys.sigint stop_handler;
        Sys.set_signal Sys.sigterm stop_handler;
        Fmt.pr "tango: serving monitoring endpoint on http://%s:%d@." host
          (Tango_monitor.Http.bound_port sock);
        Fmt.pr
          "  GET /metrics /healthz /slo /queries?n=K /queries/SEQ \
           /debug/watchdog /trace — POST /query@.";
        Fmt.pr "%!";
        Fun.protect
          ~finally:(fun () -> try Unix.close sock with _ -> ())
          (fun () ->
            Tango_monitor.Http.accept_loop ?max_requests
              ~should_stop:(fun () -> !stop)
              sock
              (Tango_monitor.Endpoints.handler endpoints));
        if !stop then
          Fmt.pr "@.tango: signal received, in-flight request drained@.";
        Fmt.pr "@.final registry snapshot:@.%a@." Tango_obs.Registry.pp
          (Tango_obs.Registry.snapshot ()))
  in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(const f $ scale_arg $ csv_arg $ shards_arg
          $ calibrate_arg $ port_arg $ host_arg
          $ slo_latency_arg $ sample_every_arg $ log_capacity_arg
          $ slow_keep_arg $ max_requests_arg)

let main =
  let doc = "TANGO: adaptable temporal query middleware on a conventional DBMS" in
  (* [run] is the default subcommand: `tango --trace "SQL"` works. *)
  Cmd.group ~default:run_term
    (Cmd.info "tango" ~version:"1.0.0" ~doc)
    [ run_cmd; explain_cmd; repl_cmd; tables_cmd; check_cmd; serve_cmd ]

let () = exit (Cmd.eval' main)
