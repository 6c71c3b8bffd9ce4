(** Synthesis of foreground traffic from a fitted model.

    The background Gaussian path comes from Hosking's method (exact,
    quadratic — used for queueing/IS where conditional structure
    matters) or Davies–Harte (exact, O(n log n) — used for long
    traces); the foreground is the marginal transform of the
    background (Eq 7). *)

type generator =
  | Hosking_stream  (** O(n) memory Durbin–Levinson, one-shot *)
  | Hosking_table of Ss_fractal.Hosking.Table.t
      (** reuse a precomputed table (must be at least [n] long) *)
  | Davies_harte  (** circulant embedding; plans are cached per (model, n) *)

val background : Model.t -> n:int -> generator -> Ss_stats.Rng.t -> float array
(** A zero-mean unit-variance background path realizing the model's
    compensated autocorrelation. @raise Invalid_argument if [n <= 0],
    a supplied table is too short, or the Davies–Harte embedding
    fails for this autocorrelation/length. *)

val foreground : Model.t -> n:int -> generator -> Ss_stats.Rng.t -> float array
(** [transform (background ...)]: a synthetic frame-size series with
    the model's marginal and dependence. *)

val table : Model.t -> n:int -> Ss_fractal.Hosking.Table.t
(** Build (and cache, keyed by the background ACF's
    {!Ss_fractal.Acf.fingerprint} and length) a Hosking table for this
    model — shared by the importance-sampling experiments. *)

val arrival_fn : Model.t -> Ss_fastsim.Is_estimator.arrival
(** The per-slot foreground map for the importance sampler: ignores
    the slot index and applies the marginal transform. *)
