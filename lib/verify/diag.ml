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

(* Minimal JSON emission, matching the style used elsewhere in the tree
   (no external JSON dependency). *)
let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let to_json d =
  let opt name = function
    | Some s -> Printf.sprintf ",\"%s\":\"%s\"" name (json_escape s)
    | None -> ""
  in
  Printf.sprintf
    "{\"severity\":\"%s\",\"family\":\"%s\",\"path\":\"%s\",\"message\":\"%s\"%s%s}"
    (severity_name d.severity) (json_escape d.family) (json_escape d.path)
    (json_escape d.message) (opt "hint" d.hint) (opt "rule" d.rule)

let list_to_json ds = "[" ^ String.concat "," (List.map to_json ds) ^ "]"
