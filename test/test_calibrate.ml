(* Tests for the refit machinery in Calibrate: slope fitting on
   synthetic observations with known coefficients, grouping by factor,
   minimum-sample gating, and directionality of the correction. *)

open Tango_cost

let obs factor x elapsed_us = { Calibrate.factor; x; elapsed_us }

(* ---------------- fit_slope ---------------- *)

(* Every factor by name, read off the public JSON export. *)
let factor_assoc f =
  match Factors.to_json f with
  | Tango_obs.Json.Obj kv ->
      List.map
        (function
          | n, Tango_obs.Json.Float v -> (n, v)
          | n, _ -> Alcotest.fail ("non-float factor " ^ n))
        kv
  | _ -> Alcotest.fail "factors JSON is not an object"

let test_fit_slope_exact () =
  (* t = 3.7 x, no noise: the least-squares slope is exactly 3.7 *)
  let pts = List.map (fun x -> (x, 3.7 *. x)) [ 10.0; 55.0; 200.0; 1234.0 ] in
  match Calibrate.fit_slope pts with
  | Some p -> Alcotest.(check (float 1e-9)) "recovers slope" 3.7 p
  | None -> Alcotest.fail "no fit"

let test_fit_slope_noisy () =
  (* symmetric multiplicative noise around a known slope *)
  let noise = [ 0.9; 1.1; 0.95; 1.05; 1.0; 1.02; 0.98 ] in
  let pts =
    List.mapi
      (fun i eps ->
        let x = 100.0 *. float_of_int (i + 1) in
        (x, 0.05 *. x *. eps))
      noise
  in
  match Calibrate.fit_slope pts with
  | Some p ->
      Alcotest.(check bool) "within 10% of truth" true
        (p > 0.045 && p < 0.055)
  | None -> Alcotest.fail "no fit"

let test_fit_slope_degenerate () =
  Alcotest.(check bool) "empty -> None" true (Calibrate.fit_slope [] = None);
  Alcotest.(check bool) "all x=0 -> None" true
    (Calibrate.fit_slope [ (0.0, 5.0); (0.0, 9.0) ] = None);
  (* garbage measurements are skipped, not propagated *)
  Alcotest.(check bool) "nan time skipped" true
    (Calibrate.fit_slope [ (10.0, Float.nan); (10.0, 20.0) ] = Some 2.0)

(* ---------------- refit ---------------- *)

let test_refit_recovers_known_factor () =
  let base = Factors.default () in
  let xs = [ 100.0; 500.0; 2000.0; 8000.0 ] in
  let observations = List.map (fun x -> obs "p_tm" x (0.42 *. x)) xs in
  let fitted, refitted = Calibrate.refit ~base observations in
  Alcotest.(check (list string)) "only p_tm refitted" [ "p_tm" ] refitted;
  Alcotest.(check (float 1e-9)) "recovers 0.42" 0.42 fitted.Factors.p_tm;
  (* the base is untouched (refit returns a fresh copy) *)
  Alcotest.(check (float 1e-9)) "base unchanged"
    (Factors.default ()).Factors.p_tm base.Factors.p_tm

let test_refit_min_samples () =
  let base = Factors.default () in
  let observations = [ obs "p_sem" 100.0 50.0; obs "p_sem" 200.0 100.0 ] in
  let _, refitted = Calibrate.refit ~min_samples:3 ~base observations in
  Alcotest.(check (list string)) "too few samples" [] refitted;
  let fitted, refitted =
    Calibrate.refit ~min_samples:2 ~base observations
  in
  Alcotest.(check (list string)) "enough samples" [ "p_sem" ] refitted;
  Alcotest.(check (float 1e-9)) "slope 0.5" 0.5 fitted.Factors.p_sem

let test_refit_direction () =
  (* when the substrate is slower than the model believes, the refit must
     move the factor up; when faster, down *)
  let base = Factors.default () in
  let xs = [ 100.0; 300.0; 900.0 ] in
  let slower = List.map (fun x -> obs "p_sortm" x (10.0 *. base.Factors.p_sortm *. x)) xs in
  let fitted_up, _ = Calibrate.refit ~base slower in
  Alcotest.(check bool) "moves up" true
    (fitted_up.Factors.p_sortm > base.Factors.p_sortm);
  let faster = List.map (fun x -> obs "p_sortm" x (0.1 *. base.Factors.p_sortm *. x)) xs in
  let fitted_down, _ = Calibrate.refit ~base faster in
  Alcotest.(check bool) "moves down" true
    (fitted_down.Factors.p_sortm < base.Factors.p_sortm)

let test_refit_groups_factors () =
  let base = Factors.default () in
  let observations =
    List.concat_map
      (fun x -> [ obs "p_tm" x (2.0 *. x); obs "p_pm" x (0.25 *. x) ])
      [ 50.0; 150.0; 450.0 ]
  in
  let fitted, refitted = Calibrate.refit ~base observations in
  Alcotest.(check (list string)) "both refitted (sorted)" [ "p_pm"; "p_tm" ]
    refitted;
  Alcotest.(check (float 1e-9)) "p_tm" 2.0 fitted.Factors.p_tm;
  Alcotest.(check (float 1e-9)) "p_pm" 0.25 fitted.Factors.p_pm

let test_refit_unknown_factor_ignored () =
  let base = Factors.default () in
  let observations =
    List.map (fun x -> obs "p_bogus" x (2.0 *. x)) [ 1.0; 2.0; 3.0 ]
  in
  let _, refitted = Calibrate.refit ~base observations in
  Alcotest.(check (list string)) "unknown name dropped" [] refitted

(* ---------------- factors by-name access ---------------- *)

let test_factor_names_roundtrip () =
  let f = Factors.default () in
  List.iter
    (fun (name, v) ->
      Alcotest.(check bool)
        (name ^ " get_by_name")
        true
        (Factors.get_by_name f name = Some v);
      Alcotest.(check bool)
        (name ^ " set_by_name")
        true
        (Factors.set_by_name f name (v +. 1.0));
      Alcotest.(check bool)
        (name ^ " updated")
        true
        (Factors.get_by_name f name = Some (v +. 1.0)))
    (factor_assoc (Factors.default ()));
  Alcotest.(check bool) "unknown name rejected" false
    (Factors.set_by_name f "p_bogus" 1.0)

let () =
  Alcotest.run "calibrate"
    [
      ( "fit_slope",
        [
          Alcotest.test_case "exact" `Quick test_fit_slope_exact;
          Alcotest.test_case "noisy" `Quick test_fit_slope_noisy;
          Alcotest.test_case "degenerate" `Quick test_fit_slope_degenerate;
        ] );
      ( "refit",
        [
          Alcotest.test_case "recovers known factor" `Quick
            test_refit_recovers_known_factor;
          Alcotest.test_case "min samples" `Quick test_refit_min_samples;
          Alcotest.test_case "direction" `Quick test_refit_direction;
          Alcotest.test_case "groups factors" `Quick test_refit_groups_factors;
          Alcotest.test_case "unknown factor ignored" `Quick
            test_refit_unknown_factor_ignored;
        ] );
      ( "factors",
        [
          Alcotest.test_case "by-name roundtrip" `Quick
            test_factor_names_roundtrip;
        ] );
    ]
