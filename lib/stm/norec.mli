(** NOrec STM (Dalessandro, Spear, Scott — PPoPP 2010) on simulated
    memory: a single global sequence lock, an indexed write buffer, and
    value-based conflict detection. Readers re-check the sequence lock
    after every read; when it moved, they re-validate their whole read set
    by value — the coherence-heavy step that memory tagging removes in
    {!Norec_tagged}. Satisfies opacity.

    This is {!Norec_tagged}'s own code with the tag fast path never armed:
    no attempt tags anything, so every read, validation and commit runs
    the value-based path that tagged NOrec falls back to. *)

include Stm_intf.S
