(** Integrity and crash-safety primitives for the files the synthesis
    layer writes: the [QSYNIDX2] census indexes of {!Census_index} (and
    the typed errors {!Census_io} raises on a foreign census file). *)

(** Raised on a file that is damaged: truncated, failing its CRC, or
    structurally inconsistent.  The payload names the defect. *)
exception Corrupt of string

(** Raised on a well-formed file that does not belong to this
    configuration: wrong format version, or a library fingerprint /
    qubit count / encoding degree differing from the library given to
    the loader.  The payload names the mismatched field and both
    values. *)
exception Mismatch of string

(** [crc32 bytes ~off ~len] is the CRC-32 (IEEE, slicing-by-8) of the
    given byte range. *)
val crc32 : Bytes.t -> off:int -> len:int -> int

(** Incremental form of {!crc32}, for digesting data that is not in one
    contiguous [Bytes.t] (e.g. an mmap'd file copied through a scratch
    buffer chunk by chunk): start from {!crc32_init}, thread the register
    through {!crc32_feed} calls over consecutive chunks, and apply
    {!crc32_finish} once at the end.  Feeding a single chunk is exactly
    {!crc32}. *)
val crc32_init : int

val crc32_feed : int -> Bytes.t -> off:int -> len:int -> int
val crc32_finish : int -> int

(** [write_atomic path bytes] writes [bytes] to [path ^ ".tmp"], fsyncs,
    renames over [path], and fsyncs the directory (best effort): a crash
    at any point — including the injected ["write_atomic"] fault between
    fsync and rename — leaves any previous file at [path] intact. *)
val write_atomic : string -> Bytes.t -> unit

(** [read_file path] reads the whole file into a fresh [Bytes.t]. *)
val read_file : string -> Bytes.t
