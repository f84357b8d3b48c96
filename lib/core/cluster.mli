(** The working clustering state of [TSBUILD] (§4.2).

    A clustering partitions the nodes of the count-stable summary into
    clusters; the induced TREESKETCH has one node per cluster.  Because
    all elements summarized by one stable node have identical sub-tree
    structure, the exact per-element child counts of any cluster edge —
    and hence the sufficient statistics (sum and sum of squares of
    child counts) driving the squared-error metric — can be recovered
    from the stable summary alone, without touching the base document.

    Cluster identifiers are stable-node ids; a merge keeps one of the
    two ids as the surviving representative.  Each representative keeps
    its out-edge statistics keyed by target representative, and a merge
    renames the merged-away id in every affected map at once, so no map
    ever holds a dead id ({!check_invariant}) and scoring a candidate
    only reads the state.  Each representative
    carries a {e version} that is bumped whenever a merge changes its
    statistics or its neighborhood, which is how the candidate heap
    detects stale entries (the [affected(h,m)] recomputation of
    Figure 5). *)

type t

type delta = {
  errd : float;  (** increase in squared error if the merge is applied *)
  sized : int;  (** decrease in synopsis size (bytes), always positive *)
}

val of_stable : Synopsis.t -> t
(** The identity clustering: one cluster per stable node (squared error
    0). *)

val stable : t -> Synopsis.t

val find : t -> int -> int
(** Current representative of a (possibly merged) cluster id. *)

val is_rep : t -> int -> bool

val alive_ids : t -> int list
(** All current representatives. *)

val num_alive : t -> int

val label : t -> int -> Xmldoc.Label.t

val count : t -> int -> float
(** Extent size of a cluster (its id must be a representative). *)

val height : t -> int -> int
(** Max height over the cluster's members. *)

val version : t -> int -> int

val size_bytes : t -> int
(** Size of the induced synopsis under the {!Synopsis} cost model,
    maintained incrementally. *)

val sq_error : t -> float
(** Total squared error of the induced clustering, maintained
    incrementally. *)

val sq_error_direct : t -> float
(** Recomputed from scratch — used by tests to validate the
    incremental bookkeeping. *)

val check_invariant : t -> bool
(** Every key of every representative's out-edge map is itself a
    representative — exposed for property tests. *)

val delta : t -> int -> int -> delta option
(** [delta t u v] evaluates the candidate merge of representatives [u]
    and [v]: the exact increase in squared error (including the
    contributions of common parents, which may be negative when
    anti-correlated siblings merge) and the exact decrease in size.
    [None] if the ids are equal, dead, or differently labeled. *)

val merge : t -> int -> int -> int
(** Apply the merge and return the surviving representative.
    @raise Invalid_argument on ids rejected by {!delta}. *)

val to_synopsis : t -> Synopsis.t
(** The induced TREESKETCH: one node per live cluster, edge averages =
    sum of child counts / extent size. *)
