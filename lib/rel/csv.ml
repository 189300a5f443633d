(** Minimal CSV import for relations, used by the CLI's [--csv].

    The dialect is deliberately simple: comma separator, double-quote
    escaping for fields containing commas/quotes/newlines, first line is the
    typed header. *)

let split_line line =
  let fields = ref [] in
  let buf = Buffer.create 16 in
  let n = String.length line in
  let rec go i in_quotes =
    if i >= n then fields := Buffer.contents buf :: !fields
    else
      let c = line.[i] in
      if in_quotes then
        if c = '"' then
          if i + 1 < n && line.[i + 1] = '"' then begin
            Buffer.add_char buf '"';
            go (i + 2) true
          end
          else go (i + 1) false
        else begin
          Buffer.add_char buf c;
          go (i + 1) true
        end
      else if c = '"' then go (i + 1) true
      else if c = ',' then begin
        fields := Buffer.contents buf :: !fields;
        Buffer.clear buf;
        go (i + 1) false
      end
      else begin
        Buffer.add_char buf c;
        go (i + 1) false
      end
  in
  go 0 false;
  List.rev !fields

(* DATE cells parse as raw chronons by default; {!Tango_temporal.Chronon}
   installs a parser that also accepts ISO dates (1997-02-01). *)
let date_parser : (string -> int) ref = ref int_of_string

let set_date_parser f = date_parser := f

let value_of_field dtype s =
  if s = "" then Value.Null
  else
    match dtype with
    | Value.TBool -> Value.Bool (bool_of_string s)
    | Value.TInt -> Value.Int (int_of_string s)
    | Value.TFloat -> Value.Float (float_of_string s)
    | Value.TStr -> Value.Str s
    | Value.TDate -> Value.Date (!date_parser s)

let read_lines ic =
  let rec go acc =
    match input_line ic with
    | line -> go (line :: acc)
    | exception End_of_file -> List.rev acc
  in
  go []

(* A header cell [Name:TYPE]. *)
let typed_column cell =
  match String.split_on_char ':' cell with
  | [ name; ty ] -> (
      try (String.trim name, Value.dtype_of_name (String.trim ty))
      with Invalid_argument m -> failwith ("Csv.read_file: " ^ m))
  | _ -> failwith ("Csv.read_file: header cell must be Name:TYPE, got " ^ cell)

let read_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      match read_lines ic with
      | [] -> failwith ("Csv.read_file: no header in " ^ path)
      | header :: rows ->
          let schema = Schema.make (List.map typed_column (split_line header)) in
          let parse_row n line =
            let fields = split_line line in
            if List.length fields <> Schema.arity schema then
              failwith
                (Printf.sprintf
                   "Csv.read_file: %s line %d has %d fields, the header %d"
                   path (n + 2) (List.length fields) (Schema.arity schema));
            Array.of_list
              (List.mapi
                 (fun i field -> value_of_field (Schema.dtype_at schema i) field)
                 fields)
          in
          Relation.of_list schema (List.mapi parse_row rows))
