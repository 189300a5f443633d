type severity = Error | Warning | Info

type t = {
  severity : severity;
  family : string;
  path : string;
  message : string;
  hint : string option;
  rule : string option;
}

let v ?hint ?rule severity family ~path message =
  { severity; family; path; message; hint; rule }

let severity_name = function
  | Error -> "error"
  | Warning -> "warning"
  | Info -> "info"

let is_error d = d.severity = Error
let errors ds = List.filter is_error ds

let count_errors ds = List.length (errors ds)

let pp ppf d =
  Fmt.pf ppf "%s[%s] at %s: %s" (severity_name d.severity) d.family
    (if d.path = "" then "<root>" else d.path)
    d.message;
  (match d.rule with
  | Some r -> Fmt.pf ppf " (introduced by rule %s)" r
  | None -> ());
  match d.hint with Some h -> Fmt.pf ppf "@.  hint: %s" h | None -> ()

let to_string d = Fmt.str "%a" pp d

let to_json d =
  let open Tango_obs.Json in
  let opt name = function Some s -> [ (name, String s) ] | None -> [] in
  Obj
    ([
       ("severity", String (severity_name d.severity));
       ("family", String d.family);
       ("path", String d.path);
       ("message", String d.message);
     ]
    @ opt "hint" d.hint @ opt "rule" d.rule)
