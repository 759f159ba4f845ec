(** Leveled logging. The level is global: default [Info], overridable with
    [set_level] or the [OBS_LEVEL] environment variable
    (quiet|error|warn|info|debug). [Info] prints to stdout (it carries the
    binaries' report output); warn/error/debug go to stderr with a level
    prefix. *)

type level = Quiet | Error | Warn | Info | Debug

val of_string : string -> level option

val to_string : level -> string

val set_level : level -> unit

val level : unit -> level

(** Would a message at this level print? *)
val enabled : level -> bool

(** Print at [level] without checking it — for callers that test
    {!enabled} first so a message nobody prints is never formatted. *)
val emit : level -> string -> unit

val log : level -> ('a, unit, string, unit) format4 -> 'a

val error : ('a, unit, string, unit) format4 -> 'a

val warn : ('a, unit, string, unit) format4 -> 'a

val info : ('a, unit, string, unit) format4 -> 'a

val debug : ('a, unit, string, unit) format4 -> 'a
