(** A problem instance: an application workflow plus a platform
    (paper Sections 3.2 and 3.3).

    The platform is a set of [m] fully-connected machines.  Machine [u]
    performs task [i] on one product in time [w i u] (milliseconds in the
    paper's experiments) and loses the product with probability [f i u].
    Communication times are neglected, as in the paper.

    Tasks of the same type must have the same processing time on a given
    machine ([t(i) = t(i') => w(i,u) = w(i',u)]); failure probabilities are
    unconstrained.  Both are validated at construction. *)

type t

(** [create ~workflow ~machines ~w ~f] builds and validates an instance.
    [w] and [f] are [n x m] matrices indexed by task then machine.  A
    zero failure probability is stored as [+0.0], also when given as
    [-0.0], so equal instances are equal bit for bit.
    @raise Invalid_argument if dimensions disagree, some [w] is
    non-positive, some [f] is outside [0, 1), or [w] is not type-consistent. *)
val create :
  workflow:Workflow.t -> machines:int -> w:float array array -> f:float array array -> t

val workflow : t -> Workflow.t

(** [machines inst] is [m]. *)
val machines : t -> int

(** [task_count inst] is [n]. *)
val task_count : t -> int

(** [type_count inst] is [p]. *)
val type_count : t -> int

(** [w inst i u] is the processing time of task [i] on machine [u]. *)
val w : t -> int -> int -> float

(** [f inst i u] is the failure probability of task [i] on machine [u]. *)
val f : t -> int -> int -> float

(** [w_of_type inst j u] is the processing time of any type-[j] task on
    machine [u]. *)
val w_of_type : t -> int -> int -> float

(** {1 Derived quantities} *)

(** [heterogeneity inst u] is the population standard deviation of
    [w(., u)] over all tasks — the "heterogeneity level" that heuristic H3
    sorts machines by. *)
val heterogeneity : t -> int -> float

(** [max_x inst] is the vector of upper bounds [MAXx_i] of the MIP
    formulation: [MAXx_i = prod_{j on the path from i to its sink}
    1/(1 - max_u f(j,u))]. *)
val max_x : t -> float array

(** [period_upper_bound inst] is a period no valid mapping can exceed:
    [max_u sum_i MAXx_i * w(i,u)] — the "period of all the tasks on the
    slowest machine" initialising the binary-search heuristics. *)
val period_upper_bound : t -> float

(** [is_homogeneous inst] is true when all [w(i,u)] are equal. *)
val is_homogeneous : t -> bool

(** [failures_task_attached inst] is true when [f(i,u)] does not depend on
    [u] (the polynomial one-to-one case of Section 7.2). *)
val failures_task_attached : t -> bool

val pp : Format.formatter -> t -> unit
