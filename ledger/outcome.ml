(* What one run of a workload produced: its op counts, and either the
   end-to-end metrics of a timed run or the layer accounting of a traced
   one. *)

type t = {
  attempted : int;
  failed : int;
  metrics : (string * float) list;  (** end to end; [[]] when traced *)
  notes : (string * string) list;  (** printed, not part of the result line *)
  layers : Layers.t option;  (** the traced run's accounting *)
}

(* name, unit: the result line's end-to-end metrics, in order *)
let end_to_end_units =
  [
    ("setup_s", "s");
    ("qps", "1/s");
    ("latency_p50_ms", "ms");
    ("latency_p95_ms", "ms");
    ("top_heap_mb", "MB");
  ]

let top_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1048576.0

(* A timed run: the end-to-end metrics of its loop, and each op class's
   p50 as a note. *)
let measured (l : Common.loop) ~setup_s ~top_heap_mb ~notes =
  let lat = Common.latencies l in
  let busy_s = Array.fold_left ( +. ) 0.0 lat /. 1e6 in
  let classes = List.sort_uniq String.compare (List.map fst l.Common.samples) in
  {
    attempted = l.Common.attempted;
    failed = l.Common.failed;
    metrics =
      [
        ("setup_s", setup_s);
        ("qps", Common.ratio (float_of_int (Array.length lat)) busy_s);
        ("latency_p50_ms", Common.quantile lat 0.50 /. 1000.0);
        ("latency_p95_ms", Common.quantile lat 0.95 /. 1000.0);
        ("top_heap_mb", top_heap_mb);
      ];
    notes =
      List.map
        (fun c -> (c ^ "_p50_ms", Printf.sprintf "%.3f" (Common.class_p50_ms l c)))
        classes
      @ notes;
    layers = None;
  }

let traced ~attempted ~failed layers =
  { attempted; failed; metrics = []; notes = []; layers = Some layers }
