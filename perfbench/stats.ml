(* Order statistics for the benchmark's reported timings. *)

let sorted values =
  let a = Array.of_list values in
  Array.sort compare a;
  a

(* nearest-rank percentile of an ascending array *)
let percentile a p =
  let n = Array.length a in
  if n = 0 then nan
  else
    let rank = int_of_float (ceil (p /. 100.0 *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))

(* the middle value, or the mean of the two middle values when the
   count is even, as Python's statistics.median gives it: a nearest-rank
   median of two runs would be their minimum *)
let median a =
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* samples strictly beyond the [p]-th percentile's rank *)
let beyond n p = n - int_of_float (ceil (p /. 100.0 *. float_of_int n))

type tail = { t_pct : int; t_value : float; t_samples : int }

(* The highest whole percentile, at most 99, with at least ten
   samples beyond it: a p99 needs 1000 samples, and a smaller sample
   reports a lower percentile instead of a p99 set by one or two
   outliers.  Below 20 samples even the median has fewer than ten beyond
   it; the median is reported then. *)
let tail a =
  let n = Array.length a in
  let rec find p =
    if p <= 50 then 50 else if beyond n (float_of_int p) >= 10 then p
    else find (p - 1)
  in
  let p = find 99 in
  { t_pct = p; t_value = percentile a (float_of_int p); t_samples = n }

let mean = function
  | [] -> nan
  | l -> List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)
