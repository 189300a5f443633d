(* The harness of the in-process workloads (paper_scan, oltp_mixed,
   adhoc_mix): one middleware session over an in-process DBMS, driven by
   a seeded stream of reads and writes, either timed end to end or
   replayed layer by layer. *)

open Tango_core

type op =
  | Read of string * Replay.read  (** op class, the read *)
  | Write of string  (** an INSERT into POSITION *)

type t = {
  mw : Middleware.t;
  next_op : unit -> op;  (** the seeded stream *)
  check : int -> op -> Middleware.report -> bool;
      (** untimed check of read [i]'s report; may sample, and hands
          costly oracles to a {!Common.checker} *)
  on_write : string -> unit;  (** a write ran: mirror it for the oracle *)
  stop : unit -> unit;  (** stop the workload's checker process *)
}

let insert mw sql = ignore (Tango_dbms.Database.execute (Middleware.database mw) sql)
let analyze mw = ignore (Tango_dbms.Database.analyze (Middleware.database mw) "POSITION")

(* A write: a new POSITION version, fresh statistics, and the session
   told so — the generation bump invalidates cached plans but not the
   middleware's statistics cache. *)
let write mw sql =
  insert mw sql;
  analyze mw;
  Middleware.refresh_statistics mw

(* The untraced run: [setup] is timed (median of several), [prepare]
   builds the untimed checks on its result, then ops run for
   [params.seconds]. *)
let measure (params : Common.params) ~setup ~prepare ~notes : Outcome.t =
  let setup_s, s = Common.timed_setup setup in
  let w = prepare s in
  Fun.protect ~finally:w.stop @@ fun () ->
  Gc.compact ();
  let max_ops = if params.Common.smoke then Common.smoke_ops else max_int in
  let loop =
    Common.closed_loop ~seconds:params.Common.seconds ~max_ops (fun i ->
        match w.next_op () with
        | Read (cls, r) as op ->
            ( cls,
              fun () ->
                let report = Replay.run_read w.mw r in
                fun () -> w.check i op report )
        | Write sql ->
            ( "write",
              fun () ->
                write w.mw sql;
                fun () ->
                  w.on_write sql;
                  true ))
  in
  Outcome.measured loop ~setup_s ~top_heap_mb:(Outcome.top_heap_mb ()) ~notes:(notes ())

(* The traced run: the head of the same stream after the same set-up;
   each read runs through [Middleware.query] and is then replayed layer
   by layer, each write is timed step by step. *)
let trace (params : Common.params) ~setup ~prepare : Outcome.t =
  let w = prepare (setup ()) in
  Fun.protect ~finally:w.stop @@ fun () ->
  Gc.compact ();
  let l = Layers.create () in
  let replay = Replay.create w.mw l in
  let max_ops = if params.Common.smoke then Common.smoke_ops else Common.traced_ops in
  let deadline = Common.mono_us () +. (params.Common.seconds *. 1e6) in
  let stats0 = Middleware.plan_cache_stats w.mw in
  let attempted = ref 0 and failed = ref 0 and reads = ref 0 in
  while !attempted < max_ops && Common.mono_us () < deadline do
    let i = !attempted in
    incr attempted;
    let op = w.next_op () in
    let ok =
      try
        match op with
        | Read (_, r) ->
            incr reads;
            let start = Common.mono_us () in
            let report, gc = Tango_obs.Runtime.measure (fun () -> Replay.run_read w.mw r) in
            let stop = Common.mono_us () in
            ignore (Layers.record l ~op:i ~parent:(-1) "op" start stop);
            let replayed, charged_us = Replay.read replay ~op:i r report in
            Layers.op_done l ~op_us:(stop -. start) ~charged_us
              ~replay_us:(Common.mono_us () -. stop) gc;
            Tango_rel.Relation.equal_list replayed report.Middleware.result
            && w.check i op report
        | Write sql ->
            let step layer f = snd (Layers.span l ~op:i ~parent:(-1) layer f) in
            let (insert_us, analyze_us, refresh_us), gc =
              Tango_obs.Runtime.measure (fun () ->
                  let a = step "dbms.insert" (fun () -> insert w.mw sql) in
                  let b = step "dbms.analyze" (fun () -> analyze w.mw) in
                  let c = step "core.refresh" (fun () -> Middleware.refresh_statistics w.mw) in
                  (a, b, c))
            in
            (* the statistics the next optimization re-collects *)
            let _, collect_us =
              Layers.span l ~op:i ~parent:(-1) "stats.collect" (fun () ->
                  Tango_stats.Collector.collect ~histograms:`All
                    (Middleware.database w.mw) ~qualifier:"POSITION" "POSITION")
            in
            Replay.forget_plans replay;
            Layers.incr l "writes";
            Layers.add l "dbms.insert_us" insert_us;
            Layers.add l "dbms.analyze_us" analyze_us;
            Layers.add l "stats.collect_us" collect_us;
            Layers.op_done l ~op_us:(insert_us +. analyze_us +. refresh_us)
              ~charged_us:(insert_us +. analyze_us) ~replay_us:collect_us gc;
            w.on_write sql;
            true
      with e ->
        Printf.eprintf "ledger: traced op %d raised %s\n%!" i (Printexc.to_string e);
        false
    in
    if not ok then incr failed
  done;
  Layers.cache_delta l ~reads:!reads stats0 (Middleware.plan_cache_stats w.mw);
  Outcome.traced ~attempted:!attempted ~failed:!failed l

let run ?(notes = fun () -> []) params ~setup ~prepare =
  if params.Common.trace then trace params ~setup ~prepare
  else measure params ~setup ~prepare ~notes

(* The configuration every in-process workload runs: the defaults
   (including the 20,000-iteration round-trip spin standing in for the
   network) with the plan cache on.  No calibration: calibrated factors
   differ from process to process and flip Query 4's plan. *)
let config = Middleware.Config.(default |> with_plan_cache true)

(* A session over a freshly generated UIS database at [scale]. *)
let session ~scale =
  let db = Tango_dbms.Database.create () in
  Tango_workload.Uis.load ~scale db;
  (db, Middleware.connect ~config db)
