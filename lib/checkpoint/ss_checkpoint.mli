(** Versioned, checksummed snapshot container + codec for crash-safe
    checkpoint/resume.

    Contract: a resumed run must be bitwise identical to the
    uninterrupted one, so every decode path either succeeds exactly or
    raises {!Corrupt} with an actionable message — there is no partial
    restore. *)

exception Corrupt of string
(** Raised on any malformed, truncated, corrupted, wrong-version or
    wrong-kind checkpoint data. The message names the failing check. *)

(** CRC-32 with the IEEE 802.3 polynomial (reflected), the checksum
    every record carries. Values are native ints in [\[0, 2^32)]. *)
module Crc32 : sig
  val update : int -> string -> int -> int -> int
  (** [update crc s pos len] continues [crc] over the [len] bytes of
      [s] from [pos]: [update (update 0 a 0 la) b 0 lb] is the CRC of
      [a ^ b]. @raise Invalid_argument on a range outside [s] or a
      [crc] outside [\[0, 2^32)]. *)

  val string : string -> int
  (** [string s] is [update 0 s 0 (String.length s)]. *)
end

(** Binary writer (little-endian, 8-byte ints, floats as IEEE bits). *)
module W : sig
  type t

  val create : unit -> t
  val contents : t -> string
  val u8 : t -> int -> unit
  val i64 : t -> int64 -> unit
  val int : t -> int -> unit
  val float : t -> float -> unit
  val bool : t -> bool -> unit
  val string : t -> string -> unit
  val float_array : t -> float array -> unit
  val int_array : t -> int array -> unit
  val option : t -> (t -> 'a -> unit) -> 'a option -> unit

  val tag : t -> string -> unit
  (** Write a named section marker; {!R.tag} verifies it on read so a
      layout mismatch fails with the section name, not garbage state. *)
end

(** Binary reader over an in-memory payload; all reads bounds-checked. *)
module R : sig
  type t

  val of_string : string -> t
  val u8 : t -> int
  val i64 : t -> int64
  val int : t -> int
  val float : t -> float
  val bool : t -> bool
  val string : t -> string
  val float_array : t -> float array

  val float_array_into : t -> float array -> unit
  (** Read into an existing array; {!Corrupt} on length mismatch. *)

  val int_array : t -> int array
  val int_array_into : t -> int array -> unit
  val option : t -> (t -> 'a) -> 'a option
  val tag : t -> string -> unit
end

val format_version : int

val encode : kind:string -> meta:string -> string -> string
(** [encode ~kind ~meta payload] frames the payload with magic,
    version, kind, meta and trailing CRC32. Exposed for tests. *)

val decode : kind:string -> string -> string * R.t
(** [decode ~kind record] verifies magic, version, kind and CRC (in
    that order) and returns [(meta, payload reader)]. *)

val to_file : path:string -> kind:string -> meta:string -> (W.t -> unit) -> unit
(** Serialize via the callback and publish atomically: the record is
    written to [path ^ ".tmp"] then renamed over [path], so a crash
    mid-write never leaves a torn file under the checkpoint name. *)

val of_file : path:string -> kind:string -> string * R.t
(** Read and verify a checkpoint file; returns [(meta, payload reader)].
    Raises {!Corrupt} on any mismatch, including unreadable files. *)
