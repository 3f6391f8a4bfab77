(** Probabilistic combinational circuits: binary inputs, quaternary
    outputs, measured (paper Section 4).

    Removing the FMCF constraint that binary inputs map to binary outputs
    turns the same synthesis machinery into a synthesizer for circuits
    with deterministic inputs and probabilistic outputs — the paper's
    route to controlled quantum random number generators and probabilistic
    state machines. *)

type t

(** [of_cascade library cascade] wraps a cascade as a probabilistic
    circuit.
    @raise Invalid_argument when the cascade violates the
    reasonable-product constraint (its outputs would not be products of
    the four signal values). *)
val of_cascade : Synthesis.Library.t -> Synthesis.Cascade.t -> t

val cascade : t -> Synthesis.Cascade.t
val qubits : t -> int

(** [output_pattern t ~input] is the quaternary output pattern for a
    binary input code. *)
val output_pattern : t -> input:int -> Mvl.Pattern.t

(** [output_distribution t ~input] is the measured distribution over
    binary output codes, exact. *)
val output_distribution : t -> input:int -> Qsim.Prob.t array

(** [is_deterministic t] is true when every binary input produces a
    binary output — i.e. the circuit is an ordinary reversible circuit. *)
val is_deterministic : t -> bool

(** [entropy_bits t ~input] is the number of random bits the measurement
    generates for this input. *)
val entropy_bits : t -> input:int -> float

(** {1 Synthesis from probabilistic specifications} *)

(** A specification assigns each binary input code a quaternary output
    pattern (the pattern must lie in the permutable domain). *)
type spec = Mvl.Pattern.t array

(** [synthesize ?max_depth library spec] finds a minimal-cost cascade
    whose action on binary inputs matches [spec] exactly, or [None] within
    the depth bound.  The spec must be consistent with some circuit
    permutation (distinct inputs map to distinct outputs).
    @raise Invalid_argument if the spec has the wrong arity, repeats an
    output, or uses a pattern outside the domain. *)
val synthesize :
  ?max_depth:int -> Synthesis.Library.t -> spec -> t option

(** [first_matching ?max_depth library matches] runs the forward BFS
    level by level and returns the first circuit, in the engine's
    canonical frontier order, whose binary image (byte [i] = the encoding
    point binary input [i] maps to) satisfies [matches] — hence one of
    minimal cost — or [None] within the depth bound (default 7).  The
    shared loop behind {!synthesize} and {!Behavior.synthesize}. *)
val first_matching :
  ?max_depth:int -> Synthesis.Library.t -> (string -> bool) -> t option

(** [spec_of_strings library rows] parses one output pattern per input
    code, e.g. [[ "000"; "001"; ...; "1,1,V0" ]]; wire values may be
    separated by commas or (for one-character values) concatenated.
    @raise Invalid_argument on malformed rows. *)
val spec_of_strings : Synthesis.Library.t -> string list -> spec

(** {1 Canned circuits} *)

(** [controlled_coin library] is the 3-qubit controlled random bit of the
    paper's QRNG discussion: wire A arms the generator, wire C carries the
    coin — cascade [V_CA]: input A=1 yields a fair coin on C, input A=0
    leaves C deterministic. *)
val controlled_coin : Synthesis.Library.t -> t
