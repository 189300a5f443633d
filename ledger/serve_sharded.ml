(* serve_sharded: HTTP against a forked server process whose session is
   built the way [tango_cli serve --shards 2] builds it — two range
   shards, tracing, profiling and the plan cache on, a 256-entry event
   log, a 100 ms SLO, [Http.accept_loop] over [Endpoints.handler].  One
   client opens one connection per request: 50% raw POST /query (the
   paper's queries and period-restricted selections, half of those
   pruning to one shard), 30% JSON bodies with bind values, 15% GET
   /queries?n=20 and 5% GET /metrics.  Only this workload exercises HTTP
   parsing, response and Prometheus rendering, the event log and SLO
   observer, scatter pruning and the gather merge. *)

open Tango_rel
open Tango_core
module Json = Tango_obs.Json
module Http = Tango_monitor.Http
module Queries = Tango_workload.Queries

let scale = 0.02 (* POSITION 1,677 tuples over 2 shards, EMPLOYEE 999 *)

(* ------------------------------------------------------------------ *)
(* The server process                                                   *)
(* ------------------------------------------------------------------ *)

let server_config =
  Middleware.Config.(
    default |> with_tracing true |> with_profiling true |> with_plan_cache true)

let sharded_session ~scale =
  Middleware.connect_topology ~config:server_config
    (Tango_workload.Uis.load_sharded ~scale ~histograms:`All ~shards:2 ())

(* The server exits when told to, or when no client connected for this
   long (its parent is gone). *)
let idle_timeout_s = 20.0

(* Serve on [sock] until GET /ledger/stop.  Each [Endpoints.handler] call
   is timed; /ledger/reset clears those records, /ledger/stop returns
   them with the process's peak heap. *)
let serve sock ~scale =
  let mw = sharded_session ~scale in
  let log = Tango_monitor.Event_log.create ~capacity:256 () in
  let slo =
    Tango_monitor.Slo.create
      ~objective:
        { Tango_monitor.Slo.default_objective with Tango_monitor.Slo.latency_us = 100_000.0 }
      ()
  in
  let endpoints = Tango_monitor.Endpoints.create ~log ~slo mw in
  let stop = ref false in
  let handler_us = ref [] and gc = ref Tango_obs.Runtime.zero in
  let handler (req : Http.request) =
    match req.Http.path with
    | "/ledger/reset" ->
        handler_us := [];
        gc := Tango_obs.Runtime.zero;
        Http.response "ok\n"
    | "/ledger/stop" ->
        stop := true;
        let g = !gc in
        Http.response ~content_type:"application/json"
          (Json.to_string
             (Json.Obj
                [
                  ("top_heap_mb", Json.Float (Outcome.top_heap_mb ()));
                  ("handler_us", Json.List (List.rev_map (fun us -> Json.Float us) !handler_us));
                  ("alloc_bytes", Json.Int g.Tango_obs.Runtime.alloc_bytes);
                  ("minor", Json.Int g.Tango_obs.Runtime.minor_collections);
                  ("major", Json.Int g.Tango_obs.Runtime.major_collections);
                ]))
    | _ ->
        let t0 = Common.mono_us () in
        let resp, d =
          Tango_obs.Runtime.measure (fun () -> Tango_monitor.Endpoints.handler endpoints req)
        in
        handler_us := (Common.mono_us () -. t0) :: !handler_us;
        gc := Tango_obs.Runtime.add !gc d;
        resp
  in
  Unix.setsockopt_float sock Unix.SO_RCVTIMEO idle_timeout_s;
  Http.accept_loop ~should_stop:(fun () -> !stop) sock handler

type server = { pid : int; port : int; mutable alive : bool }

let spawn ~scale =
  let sock = Http.listen ~port:0 () in
  let port = Http.bound_port sock in
  flush_all ();
  match Unix.fork () with
  | 0 ->
      let code = try serve sock ~scale; 0 with _ -> 1 in
      Unix._exit code
  | pid ->
      Unix.close sock;
      { pid; port; alive = true }

let reap s =
  if s.alive then begin
    s.alive <- false;
    ignore (Unix.waitpid [] s.pid)
  end

let kill s =
  if s.alive then begin
    (try Unix.kill s.pid Sys.sigkill with Unix.Unix_error _ -> ());
    reap s
  end

(* ------------------------------------------------------------------ *)
(* The client                                                           *)
(* ------------------------------------------------------------------ *)

type reply = { status : int; body : string }

(* One request on a fresh connection; the server closes it after the
   response. *)
let request ~port ~meth ~path ~body =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      let req =
        Printf.sprintf "%s %s HTTP/1.1\r\nHost: localhost\r\nContent-Length: %d\r\n\r\n%s"
          meth path (String.length body) body
      in
      let b = Bytes.of_string req in
      let rec send off =
        if off < Bytes.length b then send (off + Unix.write fd b off (Bytes.length b - off))
      in
      send 0;
      let buf = Buffer.create 4096 and chunk = Bytes.create 65536 in
      let rec recv () =
        let n = Unix.read fd chunk 0 (Bytes.length chunk) in
        if n > 0 then begin
          Buffer.add_subbytes buf chunk 0 n;
          recv ()
        end
      in
      recv ();
      let raw = Buffer.contents buf in
      let status =
        match String.split_on_char ' ' raw with
        | _ :: code :: _ -> Option.value ~default:0 (int_of_string_opt code)
        | _ -> 0
      in
      let rec body_at i =
        if i + 4 > String.length raw then String.length raw
        else if String.sub raw i 4 = "\r\n\r\n" then i + 4
        else body_at (i + 1)
      in
      let start = body_at 0 in
      { status; body = String.sub raw start (String.length raw - start) })

let get s path = request ~port:s.port ~meth:"GET" ~path ~body:""

let stop s =
  let r = get s "/ledger/stop" in
  reap s;
  match Json.parse r.body with
  | Ok (Json.Obj fields) -> fields
  | _ -> failwith "serve_sharded: bad stop reply"

(* ------------------------------------------------------------------ *)
(* The request stream                                                   *)
(* ------------------------------------------------------------------ *)

type expect =
  | Rows of Replay.read  (** a query: the row count must match *)
  | Json_doc  (** GET /queries *)
  | Exposition  (** GET /metrics *)

type req = { cls : string; meth : string; path : string; body : string; expect : expect }

let select_sql where = "VALIDTIME SELECT PosID, EmpName FROM POSITION WHERE " ^ where

let json_rate_sql =
  "VALIDTIME SELECT PosID, PayRate FROM POSITION WHERE PayRate > $1 AND T1 < $2"

let json_after_sql = "VALIDTIME SELECT PosID, EmpName FROM POSITION WHERE T1 > $1"

(* Each deck of 40 requests: 20 raw POSTs (Queries 1-4 twice each, and
   12 period selections of which 6 prune to one shard — the shards split
   at the median period start, late 1996), 12 JSON bodies, 6 GET
   /queries and 2 GET /metrics. *)
let stream ~seed =
  let st = Common.rng ~seed ~salt:6 in
  let kind =
    Common.deck st
      (List.concat_map (Common.repeat 2) [ `Q1; `Q2; `Q3; `Q4 ]
      @ Common.repeat 3 `Prune_low @ Common.repeat 3 `Prune_high
      @ Common.repeat 6 `Span @ Common.repeat 6 `Json_rate
      @ Common.repeat 6 `Json_after @ Common.repeat 6 `Queries
      @ Common.repeat 2 `Scrape)
  in
  let dates lo hi = Common.dates st ~lo_year:lo ~hi_year:hi in
  let q2_end = dates 1986 2001 and q3_bound = dates 1986 2001 in
  let low = dates 1981 1991 and high = dates 1998 2000 in
  let span_lo = dates 1984 1991 and span_hi = dates 1998 2001 in
  let json_rate = dates 1990 2001 and json_after = dates 1984 2000 in
  let post sql =
    { cls = "query"; meth = "POST"; path = "/query"; body = sql;
      expect = Rows { Replay.sql; params = [] } }
  in
  let json sql params =
    let param = function
      | Value.Int i -> Json.Int i
      | Value.Date d -> Json.String (Tango_temporal.Chronon.to_string d)
      | _ -> invalid_arg "serve_sharded: unexpected parameter"
    in
    let body =
      Json.to_string
        (Json.Obj [ ("sql", Json.String sql); ("params", Json.List (List.map param params)) ])
    in
    { cls = "json"; meth = "POST"; path = "/query"; body; expect = Rows { Replay.sql; params } }
  in
  let date d = Value.Date (Tango_temporal.Chronon.of_string d) in
  fun () ->
    match kind () with
    | `Q1 -> post Queries.q1_sql
    | `Q2 -> post (Queries.q2_sql ~period_end:(q2_end ()))
    | `Q3 -> post (Queries.q3_sql ~start_bound:(q3_bound ()))
    | `Q4 -> post Queries.q4_sql
    | `Prune_low -> post (select_sql (Printf.sprintf "T1 < DATE '%s'" (low ())))
    | `Prune_high -> post (select_sql (Printf.sprintf "T1 > DATE '%s'" (high ())))
    | `Span ->
        post
          (select_sql
             (Printf.sprintf "T1 > DATE '%s' AND T1 < DATE '%s'" (span_lo ()) (span_hi ())))
    | `Json_rate ->
        json json_rate_sql [ Value.Int (5 + Random.State.int st 25); date (json_rate ()) ]
    | `Json_after -> json json_after_sql [ date (json_after ()) ]
    | `Queries ->
        { cls = "queries"; meth = "GET"; path = "/queries?n=20"; body = ""; expect = Json_doc }
    | `Scrape ->
        { cls = "scrape"; meth = "GET"; path = "/metrics"; body = ""; expect = Exposition }

(* One query per raw shape: fills the server's plan cache. *)
let warm_queries =
  [ Queries.q1_sql; Queries.q2_sql ~period_end:"1996-01-01";
    Queries.q3_sql ~start_bound:"1996-01-01"; Queries.q4_sql;
    select_sql "T1 < DATE '1985-01-01'"; select_sql "T1 > DATE '1999-01-01'";
    select_sql "T1 > DATE '1985-01-01' AND T1 < DATE '1999-01-01'" ]

let warm s =
  List.iter
    (fun sql -> ignore (request ~port:s.port ~meth:"POST" ~path:"/query" ~body:sql))
    warm_queries

(* Set-up: fork the server, wait until it answers, warm it. *)
let boot ~scale =
  let s = spawn ~scale in
  (match get s "/healthz?plain=1" with
  | { status = 200; _ } -> ()
  | _ ->
      kill s;
      failwith "serve_sharded: the server did not come up");
  warm s;
  ignore (get s "/ledger/reset");
  s

(* ------------------------------------------------------------------ *)
(* The run                                                              *)
(* ------------------------------------------------------------------ *)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let rows_of body =
  match Json.parse body with
  | Ok (Json.Obj fields) -> (
      match List.assoc_opt "rows" fields with Some (Json.Int n) -> Some n | _ -> None)
  | _ -> None

(* The traced run: each request's round trip, the server's handler time
   for it, and — for queries — a layer-by-layer replay of the same query
   on an in-process session built like the server's and warmed the same
   way.  The round trip minus the handler time is the HTTP overhead. *)
let trace (params : Common.params) s ~scale ~next ~(send : req -> reply) ~check :
    Outcome.t =
  let l = Layers.create () in
  let mw = sharded_session ~scale in
  List.iter (fun sql -> ignore (Middleware.query mw sql)) warm_queries;
  let replay = Replay.create mw l in
  let stats0 = Middleware.plan_cache_stats mw in
  let max_ops = if params.Common.smoke then Common.smoke_ops else Common.traced_ops in
  let deadline = Common.mono_us () +. (params.Common.seconds *. 1e6) in
  (* per request: class, round trip, response bytes, charged replay
     time, replay wall time; newest first *)
  let records = ref [] in
  let attempted = ref 0 and failed = ref 0 and reads = ref 0 in
  while !attempted < max_ops && Common.mono_us () < deadline do
    let i = !attempted in
    incr attempted;
    let q = next () in
    let ok =
      try
        let start = Common.mono_us () in
        let reply = send q in
        let stop = Common.mono_us () in
        ignore (Layers.record l ~op:i ~parent:(-1) "op" start stop);
        let same, charged_us =
          match q.expect with
          | Rows r ->
              incr reads;
              let report = Replay.run_read mw r in
              let replayed, charged_us = Replay.read replay ~op:i r report in
              (Relation.equal_list replayed report.Middleware.result, charged_us)
          | Json_doc | Exposition -> (true, 0.0)
        in
        records :=
          (q, stop -. start, String.length reply.body, charged_us, Common.mono_us () -. stop)
          :: !records;
        same && check q reply
      with e ->
        Printf.eprintf "ledger: traced request %d raised %s\n%!" i (Printexc.to_string e);
        false
    in
    if not ok then incr failed
  done;
  let server = stop s in
  let handler_us =
    match List.assoc_opt "handler_us" server with
    | Some (Json.List xs) ->
        Array.of_list (List.map (function Json.Float f -> f | _ -> 0.0) xs)
    | _ -> [||]
  in
  List.iteri
    (fun i (q, rtt, bytes, charged_us, replay_us) ->
      let handler = if i < Array.length handler_us then handler_us.(i) else 0.0 in
      let http = Float.max 0.0 (rtt -. handler) in
      Layers.incr l "requests";
      Layers.add l "monitor.handler_us" handler;
      Layers.add l "monitor.response_bytes" (float_of_int bytes);
      Layers.add l "http.overhead_us" http;
      if String.equal q.cls "scrape" then begin
        Layers.incr l "scrapes";
        Layers.add l "monitor.scrape_us" handler
      end;
      (* a query's handler time is what its replay decomposes; any other
         request is monitor work *)
      let layer_us = match q.expect with Rows _ -> charged_us | _ -> handler in
      Layers.op_done l ~op_us:rtt ~charged_us:(layer_us +. http) ~replay_us
        Tango_obs.Runtime.zero)
    (List.rev !records);
  let int_field k = match List.assoc_opt k server with Some (Json.Int n) -> float_of_int n | _ -> 0.0 in
  Layers.add l "gc.alloc_bytes" (int_field "alloc_bytes");
  Layers.add l "gc.minor" (int_field "minor");
  Layers.add l "gc.major" (int_field "major");
  Layers.cache_delta l ~reads:!reads stats0 (Middleware.plan_cache_stats mw);
  Outcome.traced ~attempted:!attempted ~failed:!failed l

let run (params : Common.params) : Outcome.t =
  let scale = if params.Common.smoke then Common.smoke_scale else scale in
  let servers = ref [] and checker = ref None in
  Fun.protect
    ~finally:(fun () ->
      List.iter kill !servers;
      Option.iter Common.stop_checker !checker)
    (fun () ->
      let boot () =
        let t0 = Common.mono_us () in
        let s = boot ~scale in
        servers := s :: !servers;
        (s, (Common.mono_us () -. t0) /. 1e6)
      in
      let s, setup_s =
        if params.Common.trace then (fst (boot ()), 0.0)
        else begin
          (* each boot but the last is stopped right away *)
          let boots =
            List.init Common.setup_reps (fun i ->
                let s, seconds = boot () in
                if i < Common.setup_reps - 1 then ignore (stop s);
                (s, seconds))
          in
          ( fst (List.nth boots (Common.setup_reps - 1)),
            Common.median (Array.of_list (List.map snd boots)) )
        end
      in
      (* expected row counts from a single-backend in-process session *)
      let oracle =
        Common.checker
          (let single =
             lazy
               (let db = Tango_dbms.Database.create () in
                Tango_workload.Uis.load ~scale db;
                Middleware.connect ~config:Inproc.config ~roundtrip_spin:0 db)
           in
           let expected = Hashtbl.create 256 in
           fun ((r : Replay.read), rows) ->
             let key = (r.Replay.sql, r.Replay.params) in
             (match Hashtbl.find_opt expected key with
             | Some n -> n
             | None ->
                 let n =
                   Relation.cardinality
                     (Replay.run_read (Lazy.force single) r).Middleware.result
                 in
                 Hashtbl.replace expected key n;
                 n)
             = rows)
      in
      checker := Some oracle;
      let check (q : req) (reply : reply) =
        reply.status = 200
        &&
        match q.expect with
        | Rows r -> (
            match rows_of reply.body with
            | Some n -> Common.ask oracle (r, n)
            | None -> false)
        | Json_doc -> Result.is_ok (Json.parse reply.body)
        | Exposition ->
            (* the families the workload's queries feed *)
            List.for_all (contains reply.body) [ "tango_cache_hits"; "tango_monitor_queries" ]
      in
      let next = stream ~seed:params.Common.seed in
      let send q = request ~port:s.port ~meth:q.meth ~path:q.path ~body:q.body in
      if params.Common.trace then trace params s ~scale ~next ~send ~check
      else begin
        let max_ops = if params.Common.smoke then Common.smoke_ops else max_int in
        let loop =
          Common.closed_loop ~seconds:params.Common.seconds ~max_ops (fun _ ->
              let q = next () in
              (q.cls, fun () -> let reply = send q in fun () -> check q reply))
        in
        let server = stop s in
        let top_heap_mb =
          match List.assoc_opt "top_heap_mb" server with Some (Json.Float f) -> f | _ -> 0.0
        in
        Outcome.measured loop ~setup_s ~top_heap_mb ~notes:[]
      end)
