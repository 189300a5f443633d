(** The monitoring surface: wires a middleware session to an
    {!Event_log} and an {!Slo} tracker via
    {!Tango_core.Middleware.set_query_observer}, and dispatches HTTP
    requests to the endpoints [tango_cli serve] exposes:

    - [GET /healthz] — liveness, as JSON (bare ["ok"] under [?plain=1]);
    - [GET /metrics] — Prometheus exposition of the full
      {!Tango_obs.Registry} snapshot, the session's per-backend boundary
      meters and SLO gauges;
    - [GET /slo] — burn-rate verdict as JSON;
    - [GET /queries?n=K] — the most recent sampled event-log records;
    - [GET /queries/<seq>] — one record in full: phase breakdown,
      per-backend attribution, and its Chrome trace with backend lanes;
    - [GET /debug/watchdog] — the {!Watchdog} drill-down verdict;
    - [GET /trace] — Chrome trace JSON of the last pipeline run;
    - [POST /query] — run the temporal SQL in the body, reply with a
      JSON result summary. *)

open Tango_core

type t = {
  mw : Middleware.t;
  log : Event_log.t;
  slo : Slo.t;
  watchdog : Watchdog.t;
  started_us : float;  (* wall, for reporting when the server started *)
  started_mono_us : float;  (* monotonic, for uptime arithmetic *)
}

let create ?log ?slo mw =
  let log = match log with Some l -> l | None -> Event_log.create () in
  let slo = match slo with Some s -> s | None -> Slo.create () in
  let watchdog = Watchdog.create () in
  Middleware.set_query_observer mw
    (Some
       (fun (ev : Middleware.query_event) ->
         Event_log.observe log ev;
         Slo.observe slo
           ~now_us:(ev.Middleware.started_us +. ev.Middleware.elapsed_us)
           ~latency_us:ev.Middleware.elapsed_us
           ~ok:(ev.Middleware.error = None)));
  {
    mw;
    log;
    slo;
    watchdog;
    started_us = Tango_obs.now_us ();
    started_mono_us = Tango_obs.mono_us ();
  }

let uptime_seconds t = (Tango_obs.mono_us () -. t.started_mono_us) /. 1e6

let slo t = t.slo
let watchdog t = t.watchdog

let json_response ?status j =
  Http.response ?status ~content_type:"application/json"
    (Tango_obs.Json.to_string j ^ "\n")

let error_response status msg =
  json_response ~status (Tango_obs.Json.Obj [ ("error", Tango_obs.Json.String msg) ])

(* One exposition format: a scraper asking for OpenMetrics gets 0.0.4
   text under its own content type, which Prometheus accepts. *)
let metrics t =
  let snapshot = Tango_obs.Registry.snapshot () in
  let verdict = Slo.evaluate t.slo ~now_us:(Tango_obs.now_us ()) in
  let gauges =
    List.map
      (fun (name, v) -> Prometheus.gauge ~name v)
      (Slo.prometheus_gauges verdict)
  in
  let uptime =
    Prometheus.gauge ~name:"monitor.uptime_seconds" (uptime_seconds t)
  in
  let build_info =
    Prometheus.gauge ~name:"build_info"
      ~labels:
        [
          ("ocaml", Sys.ocaml_version);
          ("git", Build_info.git_describe);
        ]
      1.0
  in
  let body =
    Prometheus.render snapshot
    :: Prometheus.backends (Tango_dbms.Topology.backends (Middleware.topology t.mw))
    :: uptime :: build_info
    :: Prometheus.runtime_gauges ()
    :: gauges
  in
  Http.response ~content_type:Prometheus.content_type (String.concat "" body)

let queries t (req : Http.request) =
  let n =
    match List.assoc_opt "n" req.Http.query with
    | Some v -> (
        match int_of_string_opt v with
        | Some n when n > 0 -> Some n
        | _ -> None)
    | None -> Some 20
  in
  match n with
  | None -> error_response 400 "n must be a positive integer"
  | Some n -> json_response (Event_log.to_json ~n t.log)

(* The drill-down: one kept record in full — phase breakdown,
   per-backend attribution, and (when the run was traced) its Chrome
   trace with one lane per backend. *)
let query_by_seq t seq =
  match int_of_string_opt seq with
  | None -> error_response 400 "seq must be an integer"
  | Some seq -> (
      match Event_log.find t.log seq with
      | None ->
          error_response 404
            (Printf.sprintf "no record for seq %d (not kept, or evicted)" seq)
      | Some r ->
          let record = Event_log.record_to_json r in
          let fields =
            match record with Tango_obs.Json.Obj fs -> fs | j -> [ ("record", j) ]
          in
          let trace =
            match r.Event_log.event.Middleware.run with
            | Some { Middleware.trace = Some span; backends; _ } ->
                let lanes =
                  List.map
                    (fun (name, (b : Middleware.backend_breakdown)) ->
                      (name, b.Middleware.us, b.Middleware.wait_us))
                    backends
                in
                [ ("trace", Chrome_trace.to_json ~backends:lanes span) ]
            | _ -> []
          in
          json_response (Tango_obs.Json.Obj (fields @ trace)))

let watchdog_verdict t =
  let verdict =
    Watchdog.evaluate t.watchdog ~now_us:(Tango_obs.now_us ()) ~slo:t.slo
      ~log:t.log
      ~feedback:(Middleware.profile_store t.mw)
      ~cache:(Middleware.plan_cache_stats t.mw)
      ()
  in
  json_response (Watchdog.verdict_to_json verdict)

let healthz t (req : Http.request) =
  if List.mem_assoc "plain" req.Http.query then Http.response "ok\n"
  else
    let open Tango_obs.Json in
    json_response
      (Obj
         [
           ("status", String "ok");
           ("uptime_seconds", Float (uptime_seconds t));
           ("ocaml_version", String Sys.ocaml_version);
           ("git", String Build_info.git_describe);
           ( "shards",
             Int (Tango_dbms.Topology.shard_count (Middleware.topology t.mw)) );
           ("queries_seen", Int (Event_log.seen t.log));
         ])

let trace t =
  match Middleware.last_trace t.mw with
  | None -> error_response 404 "no trace collected (tracing off or no query yet)"
  | Some span ->
      Http.response ~content_type:"application/json"
        (Chrome_trace.to_string span)

(* Known pipeline failures become a 400 with the error text; anything
   else propagates to Http's 500 handler. *)
let query_failure = function
  | Tango_sql.Lexer.Lex_error m -> Some ("lex error: " ^ m)
  | Tango_sql.Parser.Parse_error m -> Some ("parse error: " ^ m)
  | Tango_tsql.Compile.Unsupported m -> Some ("unsupported: " ^ m)
  | Tango_dbms.Catalog.No_such_table m -> Some ("no such table: " ^ m)
  | Tango_dbms.Executor.Sql_error m -> Some ("sql error: " ^ m)
  | Tango_algebra.Op.Ill_formed m -> Some ("ill-formed plan: " ^ m)
  | Middleware.No_plan m -> Some ("no plan: " ^ m)
  | Failure m -> Some m
  | _ -> None

(* A [POST /query] body is either raw temporal SQL (the original
   protocol) or, when it starts with '{', a JSON object
   [{"sql": "...", "params": [...]}] binding parameter values
   positionally.  JSON strings that spell a date become [Date] values so
   clients can bind period predicates. *)
let param_of_json : Tango_obs.Json.t -> (Tango_rel.Value.t, string) result =
  function
  | Tango_obs.Json.Null -> Ok Tango_rel.Value.Null
  | Tango_obs.Json.Bool b -> Ok (Tango_rel.Value.Bool b)
  | Tango_obs.Json.Int i -> Ok (Tango_rel.Value.Int i)
  | Tango_obs.Json.Float f -> Ok (Tango_rel.Value.Float f)
  | Tango_obs.Json.String s -> (
      match Tango_temporal.Chronon.of_string s with
      | c -> Ok (Tango_rel.Value.Date c)
      | exception _ -> Ok (Tango_rel.Value.Str s))
  | Tango_obs.Json.List _ | Tango_obs.Json.Obj _ ->
      Error "params must be scalars (string/number/bool/null)"

let parse_query_body (body : string) :
    (string * Tango_rel.Value.t list, string) result =
  if String.length body > 0 && body.[0] = '{' then
    match Tango_obs.Json.parse body with
    | Error msg -> Error ("bad JSON body: " ^ msg)
    | Ok (Tango_obs.Json.Obj fields) -> (
        match List.assoc_opt "sql" fields with
        | Some (Tango_obs.Json.String sql) -> (
            match List.assoc_opt "params" fields with
            | None -> Ok (sql, [])
            | Some (Tango_obs.Json.List ps) ->
                List.fold_right
                  (fun p acc ->
                    match (acc, param_of_json p) with
                    | Ok vs, Ok v -> Ok (v :: vs)
                    | (Error _ as e), _ -> e
                    | _, Error msg -> Error msg)
                  ps (Ok [])
                |> Result.map (fun vs -> (sql, vs))
            | Some _ -> Error "\"params\" must be a JSON list")
        | Some _ -> Error "\"sql\" must be a JSON string"
        | None -> Error "JSON body needs a \"sql\" field")
    | Ok _ -> Error "JSON body must be an object"
  else Ok (body, [])

let run_query t (req : Http.request) =
  match parse_query_body (String.trim req.Http.body) with
  | Error msg -> error_response 400 msg
  | Ok ("", _) ->
      error_response 400 "empty request body; POST temporal SQL"
  | Ok (sql, params) -> (
    match Middleware.query_params t.mw sql params with
    | report ->
        json_response
          (Tango_obs.Json.Obj
             (Event_log.run_json
                ~rows:(Tango_rel.Relation.cardinality report.Middleware.result)
                (Some report)))
    | exception e -> (
        match query_failure e with
        | Some msg -> error_response 400 msg
        | None -> raise e))

let strip_prefix ~prefix s =
  let np = String.length prefix in
  if String.length s > np && String.sub s 0 np = prefix then
    Some (String.sub s np (String.length s - np))
  else None

let handler t (req : Http.request) : Http.response =
  match (req.Http.meth, req.Http.path, strip_prefix ~prefix:"/queries/" req.Http.path) with
  | "GET", _, Some seq -> query_by_seq t seq
  | "GET", "/healthz", _ -> healthz t req
  | "GET", "/metrics", _ -> metrics t
  | "GET", "/slo", _ ->
      json_response (Slo.to_json t.slo ~now_us:(Tango_obs.now_us ()))
  | "GET", "/queries", _ -> queries t req
  | "GET", "/debug/watchdog", _ -> watchdog_verdict t
  | "GET", "/trace", _ -> trace t
  | "POST", "/query", _ -> run_query t req
  | ( _,
      ( "/healthz" | "/metrics" | "/slo" | "/queries" | "/debug/watchdog"
      | "/trace" | "/query" ),
      _ )
  | _, _, Some _ ->
      Http.response ~status:405 "method not allowed\n"
  | _ -> Http.response ~status:404 "not found\n"
