(** First-class game registry.

    Every subsystem that used to pattern-match the closed
    {!Usage_cost.version} enum — the censuses, dynamics, the hunter, the
    serving wire protocol, atlas key namespaces, telemetry labels, the
    CLI — dispatches on a {!t} instead. The two basic games of the paper
    keep their exact historical spellings ([sum], [max]) so existing
    output, atlas keys, and journal headers stay byte-identical; the
    α-parameterized creation game of Fabrikant et al. rides behind
    [alpha:<α>] with the Buy/Sell/Swap_owned local move set implemented
    by {!Alpha_game}. *)

type t =
  | Sum  (** Swap game, usage cost = distance sum (paper, Section 2). *)
  | Max  (** Swap game, usage cost = local diameter (paper, Section 3). *)
  | Alpha of float
      (** α-parameterized creation game: cost α·owned + distance sum,
          deviations Buy/Sell/Swap_owned. The payload is the (finite,
          non-negative) α. *)

val equal : t -> t -> bool

val basic : t -> Usage_cost.version option
(** The underlying two-constructor kernel version for the basic swap
    games; [None] for [Alpha _]. Low-level engines ({!Swap_eval},
    {!Usage_cost}) keep speaking {!Usage_cost.version}; this is the
    bridge down. *)

val is_basic : t -> bool

val to_string : t -> string
(** Canonical string form: ["sum"], ["max"], or ["alpha:1.5"]. The α is
    printed in shortest round-trip form, so
    [of_string (to_string g) = Ok g] for every [g]. [Sum]/[Max] print as
    ["sum"]/["max"], their historical spellings, so atlas keys, journal
    headers, and wire encodings built from it stay byte-identical. This
    is the one spelling of a game. *)

val of_string : string -> (t, string) result
(** Total parser of the canonical forms, shared by the CLI [--game]
    flag, the RPC ["game"] envelope field, and atlas key namespaces.
    Rejects non-finite or negative α. The error string names the
    offending input and the accepted grammar. *)

val pp : Format.formatter -> t -> unit

val social_cost : t -> Graph.t -> float
(** The cost function the game optimizes socially. [Sum]/[Max] lift
    {!Usage_cost.social_cost} to float ({!Usage_cost.infinite} becomes
    [infinity]); [Alpha a] is α·m + Σ distances with the default
    ownership (social cost does not depend on who owns an edge). *)
