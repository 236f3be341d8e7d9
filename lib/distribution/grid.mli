(** Coordinate grids for HyperCube-style policies (Example 3.2).

    A grid with dimension vector [α₁ × … × αₖ] identifies each of the
    [α₁·…·αₖ] nodes with a coordinate vector; the HyperCube algorithm
    sends a fact to all nodes matching its hashed partial coordinate. *)

type t

val make : int array -> t
(** @raise Invalid_argument on an empty vector or a dimension < 1. *)

val size : t -> int
(** Total number of nodes (the product of the dimensions). *)

val dims : t -> int array

val encode : t -> int array -> int
(** Row-major encoding of a full coordinate.
    @raise Invalid_argument when out of range. *)

val decode : t -> int -> int array

val matching : t -> int option array -> (int -> unit) -> unit
(** [matching t partial f] calls [f] on every node whose coordinate
    agrees with the pinned positions of [partial], in ascending node
    order; [None] positions range over their whole dimension.
    @raise Invalid_argument on a wrong length or a pinned coordinate out
    of range. *)
