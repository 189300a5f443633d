(** Attribute histograms, as maintained by conventional DBMSs and consumed by
    the middleware's selectivity estimation (paper Section 3.3).

    Histograms are {e height-balanced} (equi-depth): every bucket holds
    the same number of attribute values.

    Buckets are over the numeric view of values (ints, floats, dates).
    Bucket [i] spans [lo, hi] (the paper's [b1(i,H)], [b2(i,H)]) and
    [b_val i] is the number of attribute values that fall inside (the
    paper's [bVal(i,H)]). *)

type bucket = { lo : float; hi : float; count : int }

type t = { buckets : bucket array; total : int }

let bucket_count h = Array.length h.buckets
let total h = h.total
let b_val h i = h.buckets.(i).count

(** [bucket_no h v]: index of the bucket containing value [v] — the paper's
    [bNo(A,H)].  Values below the first bucket map to bucket 0, values above
    the last to the last bucket. *)
let bucket_no h v =
  let n = Array.length h.buckets in
  if n = 0 then invalid_arg "Histogram.bucket_no: empty histogram";
  if v < h.buckets.(0).lo then 0
  else begin
    (* binary search for the bucket with lo <= v < hi (last bucket is
       closed on both ends) *)
    let rec go lo hi =
      if lo >= hi then min lo (n - 1)
      else
        let mid = (lo + hi) / 2 in
        let b = h.buckets.(mid) in
        if v < b.lo then go lo mid
        else if v >= b.hi && mid < n - 1 then go (mid + 1) hi
        else mid
    in
    go 0 n
  end

(** Build a height-balanced histogram with (up to) [buckets] buckets from
    the non-null attribute values' numeric views, sorted ascending by
    [Float.compare]. *)
let of_sorted ~buckets (xs : float array) =
  let n = Array.length xs in
  if n = 0 then { buckets = [||]; total = 0 }
  else begin
    let nb = min buckets n in
    let bs =
      Array.init nb (fun i ->
          let start = i * n / nb and stop = (i + 1) * n / nb in
          let lo = xs.(start) in
          let hi = if stop >= n then xs.(n - 1) else xs.(stop) in
          { lo; hi; count = stop - start })
    in
    { buckets = bs; total = n }
  end

(** Estimated number of values strictly below [v]: sum of the preceding
    buckets plus a uniform fraction of [v]'s bucket — the histogram branch of
    the paper's [StartBefore]/[EndBefore] functions. *)
let count_below h v =
  if Array.length h.buckets = 0 then 0.0
  else begin
    let i = bucket_no h v in
    let before = ref 0 in
    for j = 0 to i - 1 do
      before := !before + h.buckets.(j).count
    done;
    let b = h.buckets.(i) in
    let frac =
      if v <= b.lo then 0.0
      else if v >= b.hi then 1.0
      else (v -. b.lo) /. (b.hi -. b.lo)
    in
    float_of_int !before +. (frac *. float_of_int b.count)
  end
