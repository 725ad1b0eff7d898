(** Alias of {!Gmp_platform.Stats}, kept for the benchmark sources under
    [gmpbench/]; new code should name [Gmp_platform.Stats]. *)

include module type of struct
  include Gmp_platform.Stats
end
