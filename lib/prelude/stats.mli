(** Descriptive statistics over float samples.

    The experiment harness reports distributions (diameters over seeds,
    rounds to convergence, ...); these helpers compute the summary columns.
    All functions raise [Invalid_argument] on empty input. *)

type summary = {
  count : int;
  mean : float;
  stddev : float;  (** sample standard deviation (Bessel-corrected) *)
  min : float;
  max : float;
  median : float;
}

val summarize : float array -> summary

val summarize_ints : int array -> summary

val mean : float array -> float

val stddev : float array -> float

val median : float array -> float
(** Median via sorting a copy; averages the two middle values for even n. *)

val percentile : float array -> float -> float
(** [percentile xs p] for [p] in [\[0,100\]], linear interpolation between
    order statistics. *)

val histogram : int array -> (int * int) list
(** [histogram xs] is the sorted association list of (value, multiplicity). *)
