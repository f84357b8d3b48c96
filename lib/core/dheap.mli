(** Double-ended priority queue (interval heap).

    [CREATEPOOL] keeps only the [Uh] best candidate merges seen so far,
    which requires evicting the worst element ([pop_max]) while
    [TSBUILD] consumes the best ([pop_min]).  An interval heap supports
    both in [O(log n)].

    Elements carry a float priority.  Ties are not broken by any rule
    on the elements, but by the heap's shape, which is a function of the
    push/pop history alone: the same sequence of operations always pops
    the same elements in the same order.  [TSBUILD]'s output, and the
    equivalence gate pinning it, rely on that. *)

type 'a t

val create : unit -> 'a t

val length : 'a t -> int

val is_empty : 'a t -> bool

val push : 'a t -> float -> 'a -> unit

val min_priority : 'a t -> float option

val max_priority : 'a t -> float option

val pop_min : 'a t -> (float * 'a) option
(** Remove and return the element with the smallest priority. *)

val pop_max : 'a t -> (float * 'a) option
(** Remove and return the element with the largest priority. *)

val clear : 'a t -> unit

val check_invariant : 'a t -> bool
(** Internal structural invariant — exposed for property tests. *)
