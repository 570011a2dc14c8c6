(** Fixed-capacity bitsets over [\[0, capacity)].

    Backed by an int array (63 usable bits per word); used for visited marks
    and adjacency rows in the exhaustive small-graph enumerations where a
    [bool array] would double the cache traffic. *)

type t

val create : int -> t
(** [create capacity] is the empty set over [\[0, capacity)]. *)

val capacity : t -> int

val mem : t -> int -> bool

val add : t -> int -> unit

val remove : t -> int -> unit

val clear : t -> unit
(** Remove every element. *)

val cardinal : t -> int
(** Population count; O(capacity / 63). *)

val popcount : int -> int
(** Set bits of one int (a word or a vertex mask), the sign bit
    included. Branch-free: a dozen operations whatever the int holds. *)

val iter : (int -> unit) -> t -> unit
(** Visit members in increasing order. *)

val fold : (int -> 'acc -> 'acc) -> t -> 'acc -> 'acc

val to_list : t -> int list

val copy : t -> t

val equal : t -> t -> bool

val inter_cardinal : t -> t -> int
(** [inter_cardinal a b] is |a ∩ b|; capacities must match. *)
