(** Cost-factor calibration — the Cost Estimator's calibration phase.

    Like Du et al. [4], the middleware deduces cost factors by running a
    small set of designed probe queries against the actual substrate (its
    own algorithms, and the DBMS through the backend boundary) and fitting
    the formula coefficients to measured times.  Probes use synthetic
    relations so calibration is independent of user data.

    Calibration takes a few hundred milliseconds at the default probe sizes
    and should be run once per session (the paper calibrates once per DBMS
    installation). *)

open Tango_rel
open Tango_sql
open Tango_dbms
open Tango_xxl

let time_us f =
  let t0 = Tango_obs.mono_us () in
  let r = f () in
  (Tango_obs.mono_us () -. t0, r)

(* Deterministic pseudo-random stream. *)
let lcg seed =
  let state = ref seed in
  fun bound ->
    state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
    (!state lsr 13) mod bound

let probe_schema =
  Schema.make
    [ ("K", Value.TInt); ("V", Value.TFloat);
      ("T1", Value.TDate); ("T2", Value.TDate) ]

(* [keys] controls join fan-out: n distinct keys -> unique-key join. *)
let probe_relation ~n ~keys =
  let rand = lcg (n + keys) in
  Relation.of_list probe_schema
    (List.init n (fun i ->
         let t1 = rand 3000 in
         Tuple.of_list
           [
             Value.Int (if keys >= n then i else rand keys);
             Value.Float (float_of_int (rand 1000));
             Value.Date t1;
             Value.Date (t1 + 1 + rand 60);
           ]))

let bytes_of r = float_of_int (Relation.byte_size r)

(* Fit a per-byte slope from two (size, time) observations. *)
let slope (s1, t1) (s2, t2) =
  let d = s2 -. s1 in
  if d <= 0.0 then Float.max 1e-6 (t2 /. s2) else Float.max 1e-6 ((t2 -. t1) /. d)

type probe_sizes = { small : int; large : int }

let default_sizes = { small = 1_000; large = 4_000 }

(* ------------------------------------------------------------------ *)
(* Refitting from observed executions                                   *)
(* ------------------------------------------------------------------ *)

(** One observed execution attributed to a cost factor: the formula's size
    term [x] (bytes, possibly scaled by merge levels or predicate terms —
    the caller evaluates the formula structure) and the measured time.
    The profiling layer produces these from EXPLAIN ANALYZE records. *)
type observation = { factor : string; x : float; elapsed_us : float }

(** Least-squares slope through the origin for [t = p * x] — the same
    single-coefficient model the probe fits use, but over arbitrarily many
    observations instead of two designed sizes.  [None] when the
    observations carry no usable signal. *)
let fit_slope (obs : (float * float) list) : float option =
  let sxx, sxt =
    List.fold_left
      (fun (sxx, sxt) (x, t) ->
        if x > 0.0 && Float.is_finite t && t >= 0.0 then
          (sxx +. (x *. x), sxt +. (x *. t))
        else (sxx, sxt))
      (0.0, 0.0) obs
  in
  if sxx <= 0.0 then None else Some (Float.max 1e-6 (sxt /. sxx))

(** Refit factors from observed executions: every factor name with at
    least [min_samples] observations gets its coefficient re-estimated by
    {!fit_slope}; all others keep their value from [base].  Returns the
    fresh factors plus the names actually refitted — [base] itself is not
    modified, mirroring {!run}. *)
let refit ?(min_samples = 3) ~(base : Factors.t) (obs : observation list) :
    Factors.t * string list =
  let f = Factors.copy base in
  let by_factor : (string, (float * float) list ref) Hashtbl.t =
    Hashtbl.create 8
  in
  List.iter
    (fun o ->
      let cell =
        match Hashtbl.find_opt by_factor o.factor with
        | Some c -> c
        | None ->
            let c = ref [] in
            Hashtbl.replace by_factor o.factor c;
            c
      in
      cell := (o.x, o.elapsed_us) :: !cell)
    obs;
  let refitted =
    Hashtbl.fold
      (fun name cell acc ->
        if List.length !cell < min_samples then acc
        else
          match fit_slope !cell with
          | Some p when Factors.set_by_name f name p -> name :: acc
          | _ -> acc)
      by_factor []
  in
  (f, List.sort compare refitted)

(** Run calibration against [backend]'s database.  Returns fresh factors;
    does not modify any existing ones. *)
let run ?(sizes = default_sizes) (backend : Backend.t) : Factors.t =
  let db = Option.get (Backend.database backend) in
  let f = Factors.default () in
  let r_small = probe_relation ~n:sizes.small ~keys:max_int in
  let r_large = probe_relation ~n:sizes.large ~keys:max_int in
  let s_small = bytes_of r_small and s_large = bytes_of r_large in
  let with_tables k =
    Database.load_relation db "CAL_SMALL" r_small;
    Database.load_relation db "CAL_LARGE" r_large;
    Fun.protect
      ~finally:(fun () ->
        List.iter
          (fun t -> if Database.table_exists db t then Database.drop_table db t)
          [ "CAL_SMALL"; "CAL_LARGE"; "CAL_TD" ])
      k
  in
  with_tables (fun () ->
      (* --- DBMS scan: COUNT(STAR) avoids transfer --- *)
      let scan_time name =
        fst
          (time_us (fun () ->
               Database.query db (Printf.sprintf "SELECT COUNT(*) AS C FROM %s" name)))
      in
      let t_scan_small = scan_time "CAL_SMALL" in
      let t_scan_large = scan_time "CAL_LARGE" in
      f.p_scan <- slope (s_small, t_scan_small) (s_large, t_scan_large);
      f.p_isc <- f.p_scan *. 1.5;
      (* --- TRANSFER^M: fetch everything, minus the scan component --- *)
      let fetch_time name =
        fst
          (time_us (fun () ->
               let cur =
                 Backend.execute_query backend
                   (Parser.query
                      (Printf.sprintf "SELECT K, V, T1, T2 FROM %s" name))
               in
               while Backend.fetch_batch cur <> None do () done))
      in
      let t_tm = slope (s_small, fetch_time "CAL_SMALL") (s_large, fetch_time "CAL_LARGE") in
      f.p_tm <- Float.max 1e-6 (t_tm -. f.p_scan);
      (* --- TRANSFER^D: bulk load --- *)
      let load_time r =
        let t, () =
          time_us (fun () ->
              ignore
                (Backend.bulk_load backend ~table:"CAL_TD" probe_schema
                   (Array.to_seq (Relation.tuples r))))
        in
        Database.drop_table db "CAL_TD";
        t
      in
      f.p_td <- slope (s_small, load_time r_small) (s_large, load_time r_large);
      (* --- SORT^M --- *)
      let sort_time r =
        fst
          (time_us (fun () ->
               ignore
                 (Cursor.to_relation
                    (Sort.sort [ Order.asc "K" ] (Cursor.of_relation r)))))
      in
      f.p_sortm <-
        Float.max 1e-6
          (sort_time r_large /. (s_large *. Formulas.sort_levels ~size:s_large));
      (* --- FILTER^M (single-term predicate) --- *)
      let pred = Ast.Binop (Ast.Lt, Ast.Col (None, "K"), Ast.Lit (Value.Int (sizes.large / 2))) in
      let t_filter =
        fst
          (time_us (fun () ->
               ignore
                 (Cursor.to_relation
                    (Basic_ops.filter pred (Cursor.of_relation r_large)))))
      in
      f.p_sem <- Float.max 1e-6 (t_filter /. s_large);
      (* --- PROJECT^M --- *)
      let t_project =
        fst
          (time_us (fun () ->
               ignore
                 (Cursor.to_relation
                    (Basic_ops.project_attrs [ "K"; "T1" ] (Cursor.of_relation r_large)))))
      in
      f.p_pm <- Float.max 1e-6 (t_project /. s_large);
      (* --- MERGEJOIN^M on unique keys (low output) --- *)
      let qual alias r = Relation.make (Schema.qualify alias probe_schema) (Relation.tuples r) in
      let sorted alias r =
        Sort.sort [ Order.asc (alias ^ ".K") ] (Cursor.of_relation (qual alias r))
      in
      let t_mj, mj_out =
        time_us (fun () ->
            Cursor.to_relation
              (Joins.merge_join ~left_keys:[ "A.K" ] ~right_keys:[ "B.K" ]
                 (sorted "A" r_large) (sorted "B" r_large)))
      in
      let mj_sort = 2.0 *. Formulas.sort_m f ~size:s_large in
      (* Residual fits can dip below zero when the subtracted sort estimate
         overshoots; floor them at a fraction of the raw per-byte time so
         the factors stay meaningful. *)
      let floor_fit ~raw fit = Float.max (0.05 *. raw) fit in
      f.p_mjm2 <- f.p_pm;
      f.p_mjm1 <-
        floor_fit
          ~raw:(t_mj /. (2.0 *. s_large))
          ((t_mj -. mj_sort -. (f.p_mjm2 *. float_of_int (Relation.byte_size mj_out)))
          /. (2.0 *. s_large));
      (* --- TJOIN^M --- *)
      let t_tj, tj_out =
        time_us (fun () ->
            Cursor.to_relation
              (Joins.temporal_merge_join ~pred:(Ast.Lit (Value.Bool true))
                 ~left_keys:[ "A.K" ] ~right_keys:[ "B.K" ]
                 (sorted "A" r_large) (sorted "B" r_large)))
      in
      f.p_tjm2 <- f.p_pm;
      f.p_tjm1 <-
        floor_fit
          ~raw:(t_tj /. (2.0 *. s_large))
          ((t_tj -. mj_sort -. (f.p_tjm2 *. float_of_int (Relation.byte_size tj_out)))
          /. (2.0 *. s_large));
      (* --- TAGGR^M: grouped data (groups of ~8) --- *)
      let r_groups = probe_relation ~n:sizes.large ~keys:(sizes.large / 8) in
      let s_groups = bytes_of r_groups in
      let t_tg, tg_out =
        time_us (fun () ->
            Cursor.to_relation
              (Taggr.taggr ~group_by:[ "K" ]
                 ~aggs:[ Tango_algebra.Op.count_star "CNT" ]
                 (Sort.sort [ Order.asc "K"; Order.asc "T1" ]
                    (Cursor.of_relation r_groups))))
      in
      let tg_sorts =
        (* external argument sort + internal second-copy sort *)
        2.0 *. Formulas.sort_m f ~size:s_groups
      in
      f.p_taggm2 <- f.p_pm;
      f.p_taggm1 <-
        floor_fit ~raw:(t_tg /. s_groups)
          ((t_tg -. tg_sorts
           -. (f.p_taggm2 *. float_of_int (Relation.byte_size tg_out)))
          /. s_groups);
      (* --- SORT^D: ordered derived table under an aggregate --- *)
      let sortd_time name =
        fst
          (time_us (fun () ->
               Database.query db
                 (Printf.sprintf
                    "SELECT COUNT(*) AS C FROM (SELECT K FROM %s ORDER BY K) g"
                    name)))
      in
      let levels = Formulas.sort_levels ~size:s_large in
      let t_sortd = sortd_time "CAL_LARGE" in
      f.p_sortd <-
        floor_fit
          ~raw:(t_sortd /. (s_large *. levels))
          ((t_sortd -. t_scan_large) /. (s_large *. levels));
      (* --- JOIN^D: two runs with different fan-outs to fit both terms --- *)
      let join_time fanout =
        let r1 = probe_relation ~n:sizes.small ~keys:(if fanout then 64 else max_int) in
        Database.load_relation db "CAL_J1" r1;
        let t, out =
          time_us (fun () ->
              Database.query db
                "SELECT COUNT(*) AS C FROM (SELECT A.K AS K FROM CAL_J1 A, \
                 CAL_J1 B WHERE A.K = B.K) g")
        in
        let out_card =
          Value.to_int (Relation.tuples out).(0).(0)
        in
        Database.drop_table db "CAL_J1";
        (t, float_of_int out_card *. 8.0)
      in
      let t_j_low, out_low = join_time false in
      let t_j_high, out_high = join_time true in
      let in_size = 2.0 *. bytes_of (probe_relation ~n:sizes.small ~keys:max_int) in
      (* t = j1*in + j2*out for both runs; same in, different out *)
      let d_out = out_high -. out_low in
      f.p_joind2 <-
        (if d_out > 0.0 then Float.max 1e-6 ((t_j_high -. t_j_low) /. d_out)
         else f.p_joind2);
      f.p_joind1 <-
        Float.max 1e-6 ((t_j_low -. (f.p_joind2 *. out_low)) /. in_size);
      f.p_cartd <- f.p_joind2;
      (* --- TAGGR^D: the 50-line SQL at two small sizes --- *)
      let taggr_sql name =
        Printf.sprintf
          "SELECT g.K AS K, g.TS AS T1, g.TE AS T2, COUNT(*) AS CNT FROM \
           (SELECT p1.K AS K, p1.T AS TS, (SELECT MIN(p2.T) FROM (SELECT K, \
           T1 AS T FROM %s UNION SELECT K, T2 AS T FROM %s) p2 WHERE p2.K = \
           p1.K AND p2.T > p1.T) AS TE FROM (SELECT K, T1 AS T FROM %s UNION \
           SELECT K, T2 AS T FROM %s) p1) g, %s r WHERE g.TE IS NOT NULL AND \
           r.K = g.K AND r.T1 <= g.TS AND r.T2 >= g.TE GROUP BY g.K, g.TS, \
           g.TE ORDER BY K, T1"
          name name name name name
      in
      let taggd_time n =
        let r = probe_relation ~n ~keys:(max 4 (n / 8)) in
        Database.load_relation db "CAL_TG" r;
        let t, _ = time_us (fun () -> Database.query db (taggr_sql "CAL_TG")) in
        Database.drop_table db "CAL_TG";
        (bytes_of r, t)
      in
      let o1 = taggd_time (sizes.small / 4) in
      let o2 = taggd_time (sizes.small / 2) in
      f.p_taggd2 <- f.p_joind2;
      f.p_taggd1 <- slope o1 o2;
      f)
