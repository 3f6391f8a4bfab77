(** Parsing reversible-circuit specifications for the CLI and examples. *)

(** [of_output_list ~bits s] parses a comma-separated truth-table output
    column, e.g. ["0,1,2,3,4,5,7,6"] for the 3-bit Toffoli.
    @raise Invalid_argument on malformed input. *)
val of_output_list : bits:int -> string -> Revfun.t

(** [to_output_list f] is [f]'s truth-table output column in the syntax
    {!of_output_list} reads: [of_output_list ~bits:(Revfun.bits f)
    (to_output_list f) = f]. *)
val to_output_list : Revfun.t -> string

(** [of_cycles ~bits s] parses the paper's 1-based cycle notation over
    binary pattern labels, e.g. ["(7,8)"] for Toffoli.
    @raise Invalid_argument on malformed input. *)
val of_cycles : bits:int -> string -> Revfun.t

(** [of_name s] looks up a named 3-bit circuit: "toffoli", "peres"/"g1",
    "g2", "g3", "g4", "fredkin", "identity". *)
val of_name : string -> Revfun.t option

(** [of_formulas ~bits s] parses semicolon-separated per-output boolean
    formulas in {!Boolexpr} syntax, e.g. ["A; B^A; C^AB"] for the Peres
    gate (P = A, Q = B⊕A, R = C⊕AB).
    @raise Invalid_argument on syntax errors or non-reversible formulas. *)
val of_formulas : bits:int -> string -> Revfun.t

(** [parse ~bits s] tries, in order: a known name, cycle notation,
    semicolon-separated formulas, an output list.
    @raise Invalid_argument when nothing parses. *)
val parse : bits:int -> string -> Revfun.t
