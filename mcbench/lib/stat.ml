(* Order statistics for the benchmark's reported timings. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* The middle value, or the mean of the two middle values — the same
   convention as Python's statistics.median, which reads the ledger. *)
let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stat.median: no samples"
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Nearest-rank percentile: the smallest sample with at least [p] % of
   the samples at or below it. *)
let rank p n =
  (* The epsilon keeps 99.9 % of 10000 at rank 9990 despite rounding. *)
  int_of_float (Float.ceil ((p *. float_of_int n /. 100.0) -. 1e-9))

let percentile p xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stat.percentile: no samples";
  a.(max 0 (min (n - 1) (rank p n - 1)))

(* Samples strictly above the nearest-rank [p]-th percentile's rank. *)
let beyond p n = n - rank p n

(* The nearest-rank [p]-th percentile as a tail: only with at least ten
   samples beyond it, since a tail read off fewer is one outlier, not a
   percentile. *)
let tail p xs =
  let n = List.length xs in
  if beyond p n < 10 then
    invalid_arg (Printf.sprintf "Stat.tail: p%g of %d samples has fewer than ten beyond" p n);
  percentile p xs

(* Share of [jobs] workers' time spent on the serial work [serial_s]
   during [wall_s]: 1 when the fan-out keeps every worker busy. *)
let pool_efficiency ~serial_s ~jobs ~wall_s =
  if jobs < 1 || wall_s <= 0.0 then invalid_arg "Stat.pool_efficiency";
  serial_s /. (float_of_int jobs *. wall_s)

let mean xs =
  match xs with
  | [] -> invalid_arg "Stat.mean: no samples"
  | _ -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)
