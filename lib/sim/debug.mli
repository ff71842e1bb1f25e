(** Simulator-internal sanity checks (DESIGN §12).

    When on, {!Memory} validates every address against the allocator
    frontier (catching null/wild/uninitialised accesses) and {!Cache}
    asserts its insertion precondition. When off — the default — those
    checks vanish from the per-access hot path and a bad address silently
    reads simulated zeroes, exactly like stray loads on real hardware.

    The test suites and the fuzzer enable the flag at startup; benches run
    with it off. Also settable via the [MEMTAG_DEBUG_CHECKS=1] environment
    variable. The flag is global (not per-machine): flipping it never
    changes simulated behavior of correct programs, only whether incorrect
    ones trap. *)

val set : bool -> unit
val on : unit -> bool
