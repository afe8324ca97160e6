# The config round-trip check, one ctest per config-reading binary
# (registered by maicc_add_config_roundtrip in the top-level
# CMakeLists.txt):
#
#   cmake -DBIN=<binary> [-DIGNORE=<regex>] -DWORK=<dir>
#         -P config_roundtrip.cmake
#
#   1. the default run of B must exit 0, and
#      `B --dump-config > c.json; B --config=c.json` must reproduce
#      its stdout byte-for-byte and exit 0 too (lines matching
#      IGNORE, e.g. a host wall-clock line, are dropped from both
#      first), and
#   2. re-dumping the loaded config must reproduce the dump
#      byte-for-byte (load -> dump is lossless).

if(NOT DEFINED BIN OR NOT DEFINED WORK)
    message(FATAL_ERROR "pass -DBIN=<binary> -DWORK=<scratch dir>")
endif()
get_filename_component(name ${BIN} NAME)

function(run_bin out_var rc_var)
    execute_process(COMMAND ${BIN} ${ARGN} WORKING_DIRECTORY ${WORK}
        OUTPUT_VARIABLE out RESULT_VARIABLE rc)
    if(DEFINED IGNORE)
        string(REGEX REPLACE "[^\n]*${IGNORE}[^\n]*\n" "" out
            "${out}")
    endif()
    set(${out_var} "${out}" PARENT_SCOPE)
    set(${rc_var} "${rc}" PARENT_SCOPE)
endfunction()

run_bin(default_out default_rc)
if(NOT default_rc EQUAL 0)
    message(FATAL_ERROR "${name}: the default run failed "
        "(rc=${default_rc})")
endif()

run_bin(config_json rc --dump-config)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${name} --dump-config failed (rc=${rc})")
endif()
set(cfg ${WORK}/${name}_roundtrip_cfg.json)
file(WRITE ${cfg} "${config_json}")

run_bin(replay_out replay_rc --config=${cfg})
if(NOT replay_rc EQUAL 0)
    message(FATAL_ERROR "${name}: the replay of the dumped config "
        "failed (rc=${replay_rc})")
endif()
if(NOT replay_out STREQUAL default_out)
    message(FATAL_ERROR "${name}: replaying the dumped config does "
        "not reproduce the default run's stdout")
endif()

run_bin(redump rc --config=${cfg} --dump-config)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${name} --config --dump-config failed "
        "(rc=${rc})")
endif()
if(NOT redump STREQUAL config_json)
    message(FATAL_ERROR "${name}: config load -> dump is not "
        "byte-stable")
endif()

file(REMOVE ${cfg})
message(STATUS "${name}: the dumped config reproduces the default run")
