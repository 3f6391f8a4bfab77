(** Constructive synthesis by composing census witnesses.

    The exact cost spectrum of a library's universe comes from an
    exhaustive census ([qsynth census -d 13 --quotient], or
    [qsynth spectrum], which prints its histogram and coverage).  This
    module answers a different question: given a {e shallow} census,
    build a concrete — possibly suboptimal — cascade for {e any}
    reversible function.  If [g = h * h'] with [h], [h'] both in the
    census, the concatenation of their witness cascades is itself a
    reasonable cascade for [g]: the first witness ends in a
    binary-preserving circuit, whose binary-block image has an empty
    mixed signature, so any gate (hence any reasonable cascade) may
    follow.  Therefore [cost g <= cost h + cost h']. *)

(** [composer census] precomputes, by Dijkstra over the zero-fixing group
    with census members as weighted generators, the cheapest {e
    composition of census witnesses} realizing every function (any number
    of factors — concatenations of binary-preserving witnesses are always
    reasonable).  The returned function then answers any target (free
    input NOT layer included) immediately.

    The produced cascades are genuine and verifiable; their costs are
    upper bounds on the minimum (exact whenever composition through
    binary-preserving intermediates is optimal, which EXPERIMENTS.md X1
    shows holds for the entire spectrum with a depth-7 census except the
    deep tail).  Only supports 3-qubit libraries. *)
val composer : Fmcf.t -> Reversible.Revfun.t -> Mce.result option

(** [express_upper census target] is a one-shot [composer census target]
    (build the composer once for batch use). *)
val express_upper : Fmcf.t -> Reversible.Revfun.t -> Mce.result option
