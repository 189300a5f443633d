(** Chronons: the discrete time points of the temporal model.

    A chronon is a day, represented as the number of days since 1970-01-01
    (negative for earlier dates), matching the paper's day-granularity
    examples.  Conversion to and from proleptic-Gregorian calendar dates uses
    Howard Hinnant's civil-date algorithms. *)

type t = int

let compare = Int.compare

(** [of_ymd ~y ~m ~d]: day number of a calendar date.  [m] is 1..12,
    [d] 1..31. *)
let of_ymd ~y ~m ~d =
  let y = if m <= 2 then y - 1 else y in
  let era = (if y >= 0 then y else y - 399) / 400 in
  let yoe = y - (era * 400) in
  let mp = (m + 9) mod 12 in
  let doy = (((153 * mp) + 2) / 5) + d - 1 in
  let doe = (yoe * 365) + (yoe / 4) - (yoe / 100) + doy in
  (era * 146097) + doe - 719468

(** Inverse of {!of_ymd}. *)
let to_ymd (z : t) =
  let z = z + 719468 in
  let era = (if z >= 0 then z else z - 146096) / 146097 in
  let doe = z - (era * 146097) in
  let yoe = (doe - (doe / 1460) + (doe / 36524) - (doe / 146096)) / 365 in
  let y = yoe + (era * 400) in
  let doy = doe - ((365 * yoe) + (yoe / 4) - (yoe / 100)) in
  let mp = ((5 * doy) + 2) / 153 in
  let d = doy - (((153 * mp) + 2) / 5) + 1 in
  let m = if mp < 10 then mp + 3 else mp - 9 in
  let y = if m <= 2 then y + 1 else y in
  (y, m, d)

(** Parse "YYYY-MM-DD". *)
let of_string s =
  match String.split_on_char '-' s with
  | [ y; m; d ] -> (
      try of_ymd ~y:(int_of_string y) ~m:(int_of_string m) ~d:(int_of_string d)
      with Failure _ -> invalid_arg ("Chronon.of_string: " ^ s))
  | _ -> invalid_arg ("Chronon.of_string: " ^ s)

let to_string (c : t) =
  let y, m, d = to_ymd c in
  Printf.sprintf "%04d-%02d-%02d" y m d

let pp ppf c = Fmt.string ppf (to_string c)

(** The "beginning" and "forever" sentinels used for now-relative and
    open-ended data.  Kept well inside [int] range so arithmetic is safe. *)

(* Linking the temporal library upgrades Date rendering everywhere, and
   lets CSV DATE cells be ISO dates as well as raw chronons. *)
let () = Tango_rel.Value.set_date_printer to_string

let () =
  Tango_rel.Csv.set_date_parser (fun s ->
      if String.contains s '-' && String.length s > 4 then of_string s
      else int_of_string s)

let of_value = function
  | Tango_rel.Value.Date d -> d
  | Tango_rel.Value.Int i -> i
  | v ->
      invalid_arg
        ("Chronon.of_value: not a date: " ^ Tango_rel.Value.to_string v)
