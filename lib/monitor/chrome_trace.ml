(** Chrome trace-event JSON export of {!Tango_obs.Trace} spans.

    Produces the ["traceEvents"] array format that [about:tracing] and
    Perfetto open directly: one complete ("ph":"X") event per span with
    microsecond [ts]/[dur] and the span attributes as [args].

    Spans record durations and ordering but not absolute timestamps, so
    timestamps are reconstructed: a span starts where its parent starts
    and siblings are laid out back to back in execution order.  Within
    the middleware pipeline children run sequentially inside their
    parent, so this reconstruction preserves both nesting and relative
    width — the properties the flame view renders. *)

open Tango_obs

(* One process, and the pipeline on thread 1; backend lanes take
   threads 2, 3, ... *)
let pid = 1
let pipeline_tid = 1

let arg_value = function
  | Trace.Int i -> Json.Int i
  | Trace.Float f -> Json.Float f
  | Trace.Str s -> Json.String s

let event ~ts (s : Trace.span) : Json.t =
  Json.Obj
    ([
       ("name", Json.String s.Trace.name);
       ("ph", Json.String "X");
       ("ts", Json.Float ts);
       ("dur", Json.Float s.Trace.elapsed_us);
       ("pid", Json.Int pid);
       ("tid", Json.Int pipeline_tid);
     ]
    @
    match s.Trace.attrs with
    | [] -> []
    | attrs ->
        [ ("args", Json.Obj (List.map (fun (k, v) -> (k, arg_value v)) attrs)) ])

let events (root : Trace.span) : Json.t list =
  let acc = ref [] in
  let rec go ts (s : Trace.span) =
    acc := event ~ts s :: !acc;
    ignore
      (List.fold_left
         (fun t (c : Trace.span) ->
           go t c;
           t +. c.Trace.elapsed_us)
         ts s.Trace.children)
  in
  go 0.0 root;
  List.rev !acc

(* "M"-phase metadata event naming a lane in the thread list. *)
let thread_name_event ~tid name =
  Json.Obj
    [
      ("name", Json.String "thread_name");
      ("ph", Json.String "M");
      ("pid", Json.Int pid);
      ("tid", Json.Int tid);
      ("args", Json.Obj [ ("name", Json.String name) ]);
    ]

let lane_event ~tid ~name ~ts ~dur =
  Json.Obj
    [
      ("name", Json.String name);
      ("ph", Json.String "X");
      ("ts", Json.Float ts);
      ("dur", Json.Float dur);
      ("pid", Json.Int pid);
      ("tid", Json.Int tid);
    ]

let backend_lanes (backends : (string * float * float) list) : Json.t list =
  List.concat
    (List.mapi
       (fun i (name, transfer_us, wait_us) ->
         let tid = pipeline_tid + 1 + i in
         thread_name_event ~tid ("backend:" ^ name)
         :: lane_event ~tid ~name:"transfer" ~ts:0.0 ~dur:transfer_us
         :: [
              lane_event ~tid ~name:"gather-wait" ~ts:transfer_us ~dur:wait_us;
            ])
       backends)

let to_json ?(backends = []) (root : Trace.span) : Json.t =
  Json.Obj
    [
      ( "traceEvents",
        Json.List (events root @ backend_lanes backends) );
      ("displayTimeUnit", Json.String "ms");
    ]
