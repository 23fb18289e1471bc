# Checks that the committed fuzz corpora are what fuzz_make_corpus writes
# today: regenerate them into a scratch directory and compare every file
# byte for byte with tests/fuzz/corpus/.  A generator change committed
# without its regenerated corpus (or a hand-edited seed) fails here.
#
#   cmake -DMAKE_CORPUS=<fuzz_make_corpus binary> -DCORPUS=<tests/fuzz/corpus>
#         -DWORK_DIR=<scratch dir> -P tests/fuzz/corpus_fresh.cmake
foreach(var MAKE_CORPUS CORPUS WORK_DIR)
  if(NOT ${var})
    message(FATAL_ERROR "corpus_fresh.cmake needs -D${var}=...")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORK_DIR}")
execute_process(COMMAND "${MAKE_CORPUS}" "${WORK_DIR}"
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "fuzz_make_corpus failed (rc=${rc}): ${err}")
endif()

file(GLOB_RECURSE fresh RELATIVE "${WORK_DIR}" "${WORK_DIR}/*")
file(GLOB_RECURSE committed RELATIVE "${CORPUS}" "${CORPUS}/*")
list(SORT fresh)
list(SORT committed)
if(NOT fresh STREQUAL committed)
  message(FATAL_ERROR "the generator writes a different file set than the committed corpus\n"
                      "generated: ${fresh}\ncommitted: ${committed}")
endif()

set(stale "")
foreach(name IN LISTS fresh)
  file(SHA256 "${WORK_DIR}/${name}" fresh_hash)
  file(SHA256 "${CORPUS}/${name}" committed_hash)
  if(NOT fresh_hash STREQUAL committed_hash)
    list(APPEND stale "${name}")
  endif()
endforeach()
if(stale)
  message(FATAL_ERROR "committed corpus files differ from fuzz_make_corpus output: ${stale}\n"
                      "regenerate with: fuzz_make_corpus tests/fuzz/corpus")
endif()
list(LENGTH fresh count)
message(STATUS "fuzz corpus fresh: ${count} files identical")
