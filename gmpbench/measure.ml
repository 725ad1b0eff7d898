(* Clocks, order statistics and the metric record every workload reports.

   Percentiles are exact nearest-rank values over the raw samples (never
   histogram bucket edges): the p-th percentile of N sorted samples is the
   ceil(p/100 * N)-th smallest. A tail percentile is only meaningful when at
   least ten samples lie beyond it, so [tail] says when it may be reported. *)

let now_ns () = Monotonic_clock.now ()
let secs_since t0 = Int64.to_float (Int64.sub (now_ns ()) t0) *. 1e-9

(* Wall seconds and process CPU seconds of one call. CPU comes from
   getrusage (microsecond resolution), so a single-domain computation is
   charged for the cycles it used, not for the time another tenant of the
   machine held the core. *)
let cpu_now () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let timed f =
  let c0 = cpu_now () and t0 = now_ns () in
  let r = f () in
  let wall = secs_since t0 in
  (r, wall, cpu_now () -. c0)

(* A fixed computation of the same kind as the simulator's work
   (allocation, hashing, sorting), written against the standard library
   only, so no change to the repository's code changes its cost. Timed in
   the same run as a workload, it measures how fast the shared host is
   running then: on a two-core host shared with other tenants, one
   deterministic exhaustion took 2.2 s in one run and 3.9 s in another, and
   the host's speed moves by a fifth within seconds. So it is short (about
   3 ms), and a run times it many times, as close as it can to the work it
   stands beside, and takes the median. *)
let reference () =
  let h = Hashtbl.create 1024 in
  let acc = ref 0 in
  for i = 0 to 6_000 do
    Hashtbl.replace h (i land 4095) [ i; i + 1 ];
    acc := !acc + Hashtbl.hash (i * 7919)
  done;
  let a = Array.init 6_000 (fun i -> float_of_int (i * 7919 mod 100_003)) in
  Array.sort Float.compare a;
  ignore (Sys.opaque_identity (!acc, a))

let reference_cpu () =
  let (), _, cpu = timed reference in
  cpu

let sorted samples =
  let a = Array.of_list samples in
  Array.sort Float.compare a;
  a

let nearest_rank p samples =
  match samples with
  | [] -> None
  | _ ->
    let a = sorted samples in
    let n = Array.length a in
    let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
    Some a.(max 0 (min (n - 1) (rank - 1)))

let median samples = nearest_rank 50.0 samples

(* [Some v] only when at least ten samples lie strictly beyond the rank. *)
let tail p samples =
  let n = List.length samples in
  let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
  if n - rank >= 10 then nearest_rank p samples else None

type metric = {
  name : string;
  unit_ : string;
  value : float option;  (** [None]: not applicable on this workload *)
  count : int;  (** samples behind [value] *)
  reps : float list;  (** per-repetition values behind a median *)
}

let metric ?(count = 1) name unit_ value = { name; unit_; value; count; reps = [] }
let some ?count name unit_ v = metric ?count name unit_ (Some v)

let of_samples name unit_ stat samples =
  metric ~count:(List.length samples) name unit_ (stat samples)

(* A median over repetitions, which are printed beside it. *)
let of_reps name unit_ reps = { (of_samples name unit_ median reps) with reps }

let ratio a b = if b = 0 then None else Some (float_of_int a /. float_of_int b)

let top_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1e6

let minor_words () = Gc.minor_words ()
