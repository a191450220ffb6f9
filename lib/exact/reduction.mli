(** Executable form of the paper's Theorem 2 NP-hardness reduction.

    Theorem 2 shows that the one-to-one mapping problem is NP-hard, even
    with constant processing cost [w = 1] and machine-attached failure
    rates, by reduction from 3-PARTITION.  This module constructs the
    instance [I2] of the proof from a 3-PARTITION instance [I1]:

    - the application is [k] chains of three tasks sharing one final task
      (an in-tree on [3k + 1] tasks);
    - machines [M_u] for [u < 3k] have failure rate
      [f_u = (2^{z_u} - 1) / 2^{z_u}]; the extra machine never fails;
    - all processing times are 1.

    [I1] has a solution iff [I2] admits a one-to-one mapping with period at
    most [K = 2^Z] — the equivalence exercised (on small integers, where
    the powers of two stay exactly representable) by the test-suite, using
    the exact one-to-one solver as the oracle. *)

(** A 3-PARTITION instance: [3k] integers summing to [k * target], asking
    for [k] disjoint triples each summing to [target]. *)
type partition_instance = { z : int array; target : int }

(** [validate p] checks the shape ([|z| = 3k], sum [= k * target], each
    [z] strictly between [target/4] and [target/2] is {e not} enforced —
    the reduction works without it).
    @raise Invalid_argument when malformed. *)
val validate : partition_instance -> unit

(** [build p] constructs the instance [I2] of the proof.
    @raise Invalid_argument when some [2^z] is not exactly representable
    (i.e. [z > 40]). *)
val build : partition_instance -> Mf_core.Instance.t

(** [threshold p] is the period bound [K = 2^target]. *)
val threshold : partition_instance -> float

(** [solvable_by_oracle p] decides [I1] by solving [I2] exactly and
    comparing to [K] — only usable on small [k], of course. *)
val solvable_by_oracle : partition_instance -> bool

(** [brute_force_3partition p] decides 3-PARTITION directly (exponential;
    tests only). *)
val brute_force_3partition : partition_instance -> bool
