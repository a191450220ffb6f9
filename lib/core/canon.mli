(** Symmetry-normalized canonical form of an instance — the key of the
    answer cache in [Mf_solve].

    Two instances that differ only by a bijective relabeling of task
    types and/or a permutation of machines describe the same optimization
    problem: type labels carry no data (processing times are stored per
    task) and machines are anonymous — only their [(w, f)] columns
    matter.  The canonical form quotients both symmetries out:

    - {b types} are relabeled to first-appearance order over the (fixed)
      task numbering — the normalization already proven out by the
      [Mf_proptest] shrinking generators;
    - {b machines} are sorted by their [(w column, f column)] pair,
      compared lexicographically and bit-exactly — the same equivalence
      [Mf_exact.Symmetry.machine_classes] detects, strengthened to a
      total order, so bit-identical columns (symmetric machines) end up
      adjacent and the class representatives appear in sorted column
      order.

    Task numbering and the successor relation are {e not} permuted: the
    near-duplicate traffic the cache targets (the same factory asked
    about again under renamed machines or relabeled types) preserves
    them, and task-level graph canonicalization would cost a graph
    isomorphism.

    Because machine permutation leaves every per-machine Kahan load sum
    over the {e same} operands in the {e same} task order, the period of
    a mapping is invariant {e bit-for-bit} under [map_from_canon] /
    [map_to_canon] (the metamorphic fuzz oracle pins this), so an answer
    computed on the canonical instance transfers back exactly. *)

type t = {
  instance : Instance.t;  (** the canonical form *)
  key : string;
      (** binary image of the canonical form: n, m, the types, the
          successors (-1 for none) and the IEEE bits of every [w] and [f]
          entry, one little-endian 64-bit word each.  Equal iff the
          canonical forms are bit-identical; n and m come first, so no
          key is a prefix of a key of another size.  A hash key, not a
          file format ({!Instance_io} keeps the text one). *)
  of_canon : int array;
      (** [of_canon.(c)] is the original machine behind canonical column
          [c] (lowest original index among a run of identical columns) *)
  to_canon : int array;  (** inverse: original machine [u] sits at canonical column [to_canon.(u)] *)
  type_of_canon : int array;  (** canonical type [j] was original type [type_of_canon.(j)] *)
}

(** [canonicalize inst] computes the canonical form and the permutations
    linking it to [inst].  Deterministic; O(n m log m). *)
val canonicalize : Instance.t -> t

(** [key inst] is [(canonicalize inst).key] — invariant under machine
    permutation and bijective type relabeling. *)
val key : Instance.t -> string

(** [map_from_canon t alloc] rewrites an allocation over canonical
    machine indices (a solution of [t.instance]) into one over the
    original machines — same loads, bit-identical period. *)
val map_from_canon : t -> int array -> int array

(** [map_to_canon t alloc] is the inverse rewrite. *)
val map_to_canon : t -> int array -> int array
