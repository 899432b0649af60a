(** Imperative binary min-heap.

    The simulator's event queue ({!Engine}) keeps only a few events here:
    the head of each per-delay lane plus the events scheduled at an
    absolute time.  When no two elements compare equal, as there, the pop
    order does not depend on how the heap happens to be laid out. *)

type 'a t

val create : cmp:('a -> 'a -> int) -> 'a t

val length : 'a t -> int

val push : 'a t -> 'a -> unit

val top_or : 'a t -> default:'a -> 'a
(** The minimum element, or [default] when the heap is empty.  Does not
    allocate. *)

val pop : 'a t -> 'a option
(** Removes and returns the minimum element. *)

val remove_top : 'a t -> unit
(** Removes the minimum element, if any, without returning it. *)

val replace_top : 'a t -> 'a -> unit
(** [replace_top t x] removes the minimum element and inserts [x] with
    one sift instead of two ([push] when [t] is empty). *)

val remove_first : 'a t -> ('a -> bool) -> unit
(** [remove_first t p] removes the first element satisfying [p] in
    storage order, if there is one.  Linear time. *)

val fold : ('b -> 'a -> 'b) -> 'b -> 'a t -> 'b
(** Folds over every element in storage order (not sorted).  Only suited
    to order-insensitive accumulation such as counting. *)
