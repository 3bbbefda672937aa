(** A dependency-free JSON value type, parser and printer.

    Every machine-readable artifact the repo reads or writes goes through
    this one codec: the historical [BENCH_PR*.json] snapshots and the
    bench history time series, failure manifests, the serving journal's
    record payloads, replay and lint reports, and the daemon's [stats]
    line.  The toolchain deliberately carries no third-party JSON
    dependency.  Full recursive values, arrays, nested objects, escapes,
    and a printer whose output round-trips ({!parse} of {!to_string} is
    {!equal}).

    Integral number lexemes parse as [Int], others as [Float]; a
    [Float] prints with a fractional part ([2.0], not [2]) so the
    distinction survives a round trip. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Parse_error of string
(** Position-annotated message. *)

val parse : string -> t
(** @raise Parse_error on malformed input (trailing garbage included). *)

val parse_file : string -> t
(** {!parse} on a whole file's contents. *)

val to_string : ?compact:bool -> t -> string
(** [compact] (default [true]) prints with no whitespace — one line, the
    shape history files store per record.  With [compact:false], objects
    and arrays break across indented lines. *)

val equal : t -> t -> bool
(** Structural, with [Int n] equal to [Float f] when [f = float n]. *)

(** {2 Accessors} — total, returning [None] on shape mismatch. *)

val member : string -> t -> t option
val str : t -> string option
val num : t -> float option
val int : t -> int option
val bool : t -> bool option
val arr : t -> t list option
val obj : t -> (string * t) list option

val escape_string : string -> string
(** The quoted, escaped JSON literal for a string: quote, backslash and
    control characters are escaped, every other byte passes through, so
    [parse (escape_string s) = Str s] for any byte string. *)

val unescape_string : string -> string option
(** Inverse of {!escape_string}; [None] if not a valid quoted literal. *)
