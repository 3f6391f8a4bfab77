(** Meet-in-the-middle (bidirectional) minimum-cost synthesis — the
    independent deep-cost oracle.

    No serving path uses this engine: {!Mce.solve} answers from a
    {!Census_index} or the forward BFS.  It stays as a second, structurally
    different way to derive exact costs, so the test suite can re-derive
    every cost-12/13 function of the complete paper18 index (and the
    depth-7 census) without the symmetry quotient or the index-building code
    that produced them.

    Grows a forward BFS wave from the identity circuit (the ordinary
    {!Search} engine) and, per query, a backward wave from the target,
    joining the two on the binary-block {e image vector} — the
    [num_binary]-byte prefix of a state's key.  Under the
    reasonable-product constraint (Definition 1), whether a gate
    sequence may legally follow a circuit and which binary function the
    composite computes depend only on that vector, so the backward wave
    searches the small vector quotient instead of full point
    permutations: vector [v] steps backward to every pre-image
    [inverse_array(g) v] whose signature admits [g].  Each fresh state
    on either side probes the other side's table; the first join found
    is already a {e minimum}-cost realization, because every realization
    of cost [<= fwd_depth + bwd_depth] is provably discovered (see the
    completeness argument in [bidir.ml]).  Two depth-D waves therefore
    certify costs up to [2·D], and the forward wave is shared across
    queries. *)

type t
(** A reusable query context: the shared forward wave plus the
    vector-join index.  Queries grow the forward wave lazily and never
    shrink it. *)

(** [create ?max_fwd_depth library] builds an empty context.
    [max_fwd_depth] (default 7) caps forward growth — the forward
    frontier multiplies by ~4.5 per level, while backward levels are
    cheap, so queries beyond the cap grow only the backward wave (which
    bounds certifiable cost by [max_fwd_depth + bwd_depth]).
    @raise Invalid_argument when [max_fwd_depth < 0]. *)
val create : ?max_fwd_depth:int -> Library.t -> t

(** [fwd_depth t] is the current depth of the shared forward wave. *)
val fwd_depth : t -> int

(** [warm t ~depth] grows the shared forward wave to
    [min depth max_fwd_depth] (or until the wave is exhausted) before
    the first query.  Idempotent.
    @raise Invalid_argument when [depth < 0]. *)
val warm : t -> depth:int -> unit

type outcome = {
  cascade : Cascade.t;  (** a minimum-cost realization of the target *)
  cost : int;  (** its length — exact, not an upper bound *)
  fwd_depth : int;  (** forward depth when the query answered *)
  bwd_depth : int;  (** backward depth when the query answered *)
  bwd_states : int;  (** backward states explored by this query *)
}

(** [synthesize ?max_cost t remainder] finds a minimum-cost cascade
    whose binary restriction is [remainder] (which must fix zero — strip
    the NOT layer first, as in {!Mce}), or [None] when every
    realization costs more than [max_cost] (default 14).

    @raise Invalid_argument when [remainder] does not fix zero, its bit
    width does not match the library, or [max_cost < 0]. *)
val synthesize : ?max_cost:int -> t -> Reversible.Revfun.t -> outcome option
