(** Deterministic fault injection for durability testing.

    Code declares named {e hit points} ([Faultsim.hit "write_atomic"])
    on the paths whose failure we want to prove survivable.  In normal
    operation a hit point is a single load of an immutable [bool];
    nothing else happens.

    Arming is deterministic and keyed by a [point:count] spec — the fault
    fires on exactly the [count]-th execution of [point] (1-based),
    raising {!Injected}.  The spec comes either from the
    [QSYNTH_FAULT] environment variable (read once at module
    initialization, so child processes inherit the behaviour) or from
    {!configure} (tests).  Because the counter is deterministic,
    [QSYNTH_FAULT=write_atomic:2] fires at the same write on every
    run.

    Fault-point catalog (see doc/ROBUSTNESS.md) — a single point:
    - ["write_atomic"] — in {!Synthesis.Durable}[.write_atomic] (every
      census-index save), after the temp file is fully written and
      fsynced but {e before} the atomic rename: a crash that must leave
      any previous file at the target path intact. *)

(** Raised by {!hit} when the armed point reaches its trigger count.
    The payload is the point name. *)
exception Injected of string

(** [hit point] records one execution of [point] and raises {!Injected}
    when an armed spec for [point] reaches its count.  No-op (one boolean
    load) when nothing is armed. *)
val hit : string -> unit

(** [configure spec] re-arms the module: [None] disarms, [Some
    "point:count"] arms [point] to fire at its [count]-th hit from now
    (all hit counters are reset).  Multiple comma-separated [point:count]
    pairs may be given; the first to reach its count fires.
    @raise Invalid_argument on a malformed spec (empty point, count < 1,
    missing colon). *)
val configure : string option -> unit

(** [armed ()] is the active spec, if any. *)
val armed : unit -> string option

(** [parse_spec spec] validates and normalizes a spec string without
    arming it; used by CLI validation to reject bad [QSYNTH_FAULT]
    values up front.
    @raise Invalid_argument with a message naming the defect. *)
val parse_spec : string -> (string * int) list
