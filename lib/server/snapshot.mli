(** Versioned binary persistence of a served materialization.

    A snapshot file carries the program, the EDB and the per-stratum
    cached state of a {!Guarded_incr.Incr.t}
    ({!Guarded_incr.Incr.dump}), so [guarded listen --snapshot FILE]
    restarts warm: the materialization is rebuilt without re-running
    any fixpoint.

    File layout (all multi-byte values in {!Guarded_core.Codec}'s
    encodings):

    {v
      "GRDSNAP2"             8-byte magic, the trailing digit is the
                             format version
      varint                 body length in bytes
      body                   theory, EDB, stratum dumps
      int64 (little-endian)  FNV-1a checksum of the body bytes
    v}

    A stratum dump is the list of the stratum's output facts beyond
    its input. Version 1 images also carried per-fact derivation
    counts, which maintenance no longer keeps; they are refused as an
    unsupported version, and a version-1 reader refuses version 2 the
    same way, so neither side can misread the other's body.

    Loading verifies the magic, the version, the body length and the
    checksum before decoding; any mismatch — including truncation and
    trailing garbage — raises {!Corrupt} with a description, never a
    decoding exception. Saving writes a temporary file in the target's
    directory and renames it into place, so a crash mid-save never
    clobbers the previous snapshot. *)

open Guarded_core

exception Corrupt of string
(** The file is not a readable snapshot (bad magic, unsupported
    version, checksum mismatch, truncation, malformed body). *)

val encode : Theory.t -> Guarded_incr.Incr.dump -> string
(** The complete image — magic, length, body, checksum — as bytes.
    {!save} writes exactly these bytes to disk and the server's
    [SNAP] reply carries exactly them over the wire, so both
    transports share one codec and one validation chain. *)

val decode : ?what:string -> string -> Theory.t * Guarded_incr.Incr.dump
(** Verifies and decodes an {!encode}d image. [what] labels errors
    (a path, or the wire peer).
    @raise Corrupt on any mismatch — bad magic, unsupported version,
    wrong length, checksum failure, malformed body. *)

val restore :
  ?pool:Guarded_par.Pool.t ->
  ?what:string ->
  string ->
  Theory.t * Guarded_incr.Incr.t
(** {!decode}, then rebuild the materialization with
    {!Guarded_incr.Incr.restore}. @raise Corrupt as {!decode}. *)

val restore_for :
  ?pool:Guarded_par.Pool.t ->
  ?what:string ->
  string ->
  Theory.t ->
  Guarded_incr.Incr.t
(** {!restore}, but additionally checks the stored program equals the
    one being served — the replica bootstrap path: an image of a
    different program is rejected as {!Corrupt} rather than replayed
    into wrong answers. *)

val theory_equal : Theory.t -> Theory.t -> bool
(** Rule-set equality up to order — the program check behind
    {!restore_for} and {!load_for}. *)

val save : path:string -> Theory.t -> Guarded_incr.Incr.dump -> unit
(** Atomically writes [path]. @raise Sys_error on I/O failure. *)

val load :
  ?pool:Guarded_par.Pool.t -> string -> Theory.t * Guarded_incr.Incr.t
(** Reads, verifies and decodes the file, then rebuilds the
    materialization with {!Guarded_incr.Incr.restore}.
    @raise Corrupt on a damaged or foreign file.
    @raise Sys_error when the file cannot be read. *)

val load_for :
  ?pool:Guarded_par.Pool.t -> string -> Theory.t -> Guarded_incr.Incr.t
(** {!load}, but additionally checks the stored program equals the one
    being served — a snapshot of a different program is rejected as
    {!Corrupt} rather than served with wrong answers. *)
