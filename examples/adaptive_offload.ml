(* Adaptation: cost-factor refits re-partition subsequent queries.

   The paper's middleware "uses performance feedback from the DBMS to adapt
   its partitioning of subsequent queries".  This example demonstrates it
   on the regular join of POSITION and EMPLOYEE (the paper's Query 4):

   - the middleware's merge join must transfer BOTH argument relations out
     of the DBMS (~100 bytes/tuple in total);
   - the DBMS join transfers only the three projected result columns.

   On a fast network the optimizer may still favour the middleware join
   (our EMPLOYEE is unindexed here, so the DBMS join is a generic one).
   As the network degrades — simulated by growing the per-round-trip cost
   of the backend boundary — the transfers' measured times overrun their
   estimates, the adaptive loop (Tango_profile.Adapt) refits the transfer
   factor p_tm, and the optimizer moves the join back into the DBMS,
   because shipping two whole relations no longer pays off.  The example
   exits 1 if the join never moves.

   Run with:  dune exec examples/adaptive_offload.exe *)

open Tango_rel
open Tango_core
open Tango_workload

let join_d = "JOIN^D (DBMS)"

let join_runs_in report =
  let open Tango_volcano.Physical in
  let rec go p =
    if p.algorithm = Merge_join_m then "MERGEJOIN^M (middleware)"
    else if p.algorithm = Join_d then join_d
    else
      List.fold_left (fun acc c -> if acc = "" then go c else acc) "" p.children
  in
  go report.Middleware.physical

let () =
  let db = Tango_dbms.Database.create () in
  (* Load without the EmpID index: the DBMS join is a generic one, so the
     placement decision hinges on transfer costs alone. *)
  Tango_dbms.Database.load_relation db "POSITION" (Uis.position ~n:900 ~employees:500 ());
  Tango_dbms.Database.load_relation db "EMPLOYEE" (Uis.employee ~n:500 ());
  Tango_dbms.Database.analyze_all db ();
  let mw = Middleware.connect ~row_prefetch:16 db in
  Middleware.calibrate mw;
  Middleware.set_config mw
    Middleware.Config.(with_adaptive_costs true (Middleware.config mw));

  Fmt.pr "Adaptive cost refits (same query, degrading network):@.@.";
  Fmt.pr "%-6s %-12s %-10s %-26s %s@." "round" "spin/rt" "p_tm" "join runs in" "exec ms";
  let spins = [ 0; 0; 0 ] @ List.init 5 (fun _ -> 3_000_000) in
  let moved = ref false in
  List.iteri
    (fun i spin ->
      Tango_dbms.Backend.set_roundtrip_spin (Middleware.primary mw) spin;
      let report = Middleware.query mw Queries.q4_sql in
      let runs_in = join_runs_in report in
      if runs_in = join_d then moved := true;
      Fmt.pr "%-6d %-12d %-10.4f %-26s %.1f@." (i + 1) spin
        (Middleware.factors mw).Tango_cost.Factors.p_tm runs_in
        (report.Middleware.execute_us /. 1000.0);
      ignore (Relation.cardinality report.Middleware.result))
    spins;
  Fmt.pr
    "@.The transfer factor p_tm grows as transfers slow down; once shipping \
     both@.argument relations costs more than shipping the projected join \
     result, the@.optimizer moves the join back into the DBMS.@.";
  if not !moved then begin
    Fmt.epr "adaptive_offload: the join never moved into the DBMS@.";
    exit 1
  end
