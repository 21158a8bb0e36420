(** Reading side of the trace schema: load a JSONL trace file, validate it,
    and render a human-readable run summary ([twmc report]).  {!Health}
    and {!Progress} build on the same events ([twmc report health],
    [twmc report tail]). *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of json list
  | Obj of (string * json) list

type event = {
  v : int;  (** Schema version stamped on the line; 0 when absent. *)
  ev : string;  (** "meta", "span_begin", "span_end" or "point". *)
  id : int;  (** 0 when absent. *)
  parent : int;
  name : string;
  t_ns : int;
  attrs : (string * json) list;
  line : int;
      (** 1-based line in the file the event was loaded from; 0 for
          synthetic events.  {!validate} reports it when present. *)
}

val parse_json : string -> json
(** Minimal JSON parser (objects, arrays, strings, numbers, booleans,
    null); raises [Failure] on malformed input. *)

val json_to_string : json -> string
(** Serializes so that [parse_json (json_to_string j)] reproduces [j]
    (whole numbers print without a fraction, other floats at full
    precision). *)

val event_of_json : ?line:int -> json -> event
(** One trace line as an {!event} ([line], default 0, is stamped into the
    result for error reporting).  Raises [Failure] when [j] is not an
    object.  The incremental reader behind [twmc report tail] uses this on
    lines as they appear, where {!load} would demand the whole file. *)

val load : string -> event list
(** Parses a JSONL trace file; raises [Failure "path:line: reason"] on the
    first malformed or non-object line, naming the offending line and why
    it was rejected. *)

val validate : event list -> string list
(** Schema validation: a leading meta line with a supported version,
    non-decreasing timestamps, every [span_end] matching an open
    [span_begin] of the same id, no span left open, and parents that are
    open when their children begin.  Returns the problems found ([[]] means
    valid). *)

val pp_summary : Format.formatter -> event list -> unit
(** Per-stage wall time, top-5 slowest spans, the stage-1 acceptance curve
    (winning replica when identifiable) and the router overflow trend. *)

