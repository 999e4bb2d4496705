(* Order statistics over latency samples.

   Percentiles use the nearest-rank definition with integer arithmetic, so
   the reported rank never depends on floating-point rounding of p/100. *)

let sorted samples =
  let a = Array.copy samples in
  Array.sort Float.compare a;
  a

(* 1-based rank of the [p]-th percentile (0 < p <= 100) among [n] samples:
   the smallest rank with at least p% of the samples at or below it. *)
let rank p n = max 1 ((p * n + 99) / 100)

(* Samples strictly beyond the [p]-th percentile. *)
let beyond p n = n - rank p n

let percentile p samples =
  let n = Array.length samples in
  if n = 0 then invalid_arg "Stats.percentile: no samples";
  if p <= 0 || p > 100 then invalid_arg "Stats.percentile: p must be in (0, 100]";
  (sorted samples).(rank p n - 1)

let median samples = percentile 50 samples

(* The highest tail percentile that keeps at least ten samples beyond it:
   p99 from 1000 samples, p90 from 100.  [None] below that — too few
   samples to report a tail at all. *)
let tail_percentile n = List.find_opt (fun p -> beyond p n >= 10) [ 99; 90 ]

(* A tail that a burst of load on a shared host cannot dominate: [samples],
   in the order they were taken, are cut into consecutive blocks of [block]
   (leftovers are dropped), each block reports its {!tail_percentile}, and
   the median block is kept.  Returns (percentile, blocks, value). *)
let block_tail ~block samples =
  let blocks = Array.length samples / block in
  match tail_percentile block with
  | Some p when blocks > 0 ->
    Some (p, blocks, median (Array.init blocks (fun b -> percentile p (Array.sub samples (b * block) block))))
  | _ -> None
