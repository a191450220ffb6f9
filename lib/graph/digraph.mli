(** Directed graphs over integer vertices [0 .. n-1].

    Cycle detection, topological orders and degree queries over a
    general graph.  {!Mf_core.Workflow} validates its in-forest itself;
    {!Mf_core.Workflow.to_digraph} exports one into this form. *)

type t

(** [create n] is an edgeless graph on [n] vertices. *)
val create : int -> t

val vertex_count : t -> int
val edge_count : t -> int

(** [add_edge g u v] inserts the arc [u -> v] (duplicates are ignored).
    @raise Invalid_argument if an endpoint is out of range. *)
val add_edge : t -> int -> int -> unit

val mem_edge : t -> int -> int -> bool

(** [succ g u] is the list of successors of [u] in insertion order. *)
val succ : t -> int -> int list

(** [pred g u] is the list of predecessors of [u] in insertion order. *)
val pred : t -> int -> int list

val out_degree : t -> int -> int
val in_degree : t -> int -> int

(** [topological_order g] is [Some order] (sources first) when [g] is
    acyclic, [None] otherwise. *)
val topological_order : t -> int list option

val is_dag : t -> bool

(** [sources g] lists vertices with no predecessor. *)
val sources : t -> int list

(** [sinks g] lists vertices with no successor. *)
val sinks : t -> int list
