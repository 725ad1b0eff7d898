(* Re-export of [Gmp_platform.Stats] under its old path, for the benchmark
   sources under gmpbench/ only; everything else names [Gmp_platform.Stats]
   directly. *)

include Gmp_platform.Stats
