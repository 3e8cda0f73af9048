# Checks that the DFGEN_* knob registry and the code agree.
#
# Fails when
#   (a) an env-accessor call in src/ or bench/ names a "DFGEN_..." literal
#       that is not in the seed list of src/support/env.cpp, or
#   (b) a seeded name is read by no accessor call under src/, bench/ or
#       tests/ (src/support/env.cpp and tests/test_env.cpp do not count).
#
# Only accessor calls count, not bare literals: the jit emits DFGEN_TILE
# into generated C, which is not an environment variable.
#
# Usage: cmake -DSOURCE_DIR=<repo root> -P tests/check_env_registry.cmake
cmake_minimum_required(VERSION 3.16)

if(NOT SOURCE_DIR)
  message(FATAL_ERROR "pass -DSOURCE_DIR=<repo root>")
endif()

# The seed list: every "DFGEN_..." literal inside `known = { ... };`.
file(READ "${SOURCE_DIR}/src/support/env.cpp" env_source)
string(REGEX MATCH "known = {[^}]*}" seed_block "${env_source}")
if(NOT seed_block)
  message(FATAL_ERROR "seed list not found in src/support/env.cpp")
endif()
string(REGEX MATCHALL "\"DFGEN_[A-Z0-9_]+\"" seeded "${seed_block}")
string(REPLACE "\"" "" seeded "${seeded}")

# The names each file reads: accessor calls whose first argument is a
# DFGEN_ literal, possibly on the next line.
set(call_regex
    "(get_flag|get_int|get_string|raw|register_known)\\([ \t\r\n]*\"DFGEN_[A-Z0-9_]+\"")
function(names_read out)
  set(names "")
  foreach(path IN LISTS ARGN)
    file(READ "${path}" text)
    string(REGEX MATCHALL "${call_regex}" calls "${text}")
    foreach(call IN LISTS calls)
      string(REGEX MATCH "DFGEN_[A-Z0-9_]+" name "${call}")
      list(APPEND names "${name}")
    endforeach()
  endforeach()
  list(REMOVE_DUPLICATES names)
  set(${out} "${names}" PARENT_SCOPE)
endfunction()

set(patterns "*.cpp" "*.hpp")
set(code_files "")
set(test_files "")
foreach(dir src bench)
  foreach(pattern IN LISTS patterns)
    file(GLOB_RECURSE found "${SOURCE_DIR}/${dir}/${pattern}")
    list(APPEND code_files ${found})
  endforeach()
endforeach()
foreach(pattern IN LISTS patterns)
  file(GLOB_RECURSE found "${SOURCE_DIR}/tests/${pattern}")
  list(APPEND test_files ${found})
endforeach()
list(FILTER code_files EXCLUDE REGEX "/src/support/env\\.cpp$")
list(FILTER test_files EXCLUDE REGEX "/tests/test_env\\.cpp$")

set(problems "")
names_read(code_names ${code_files})
foreach(name IN LISTS code_names)
  if(NOT name IN_LIST seeded)
    list(APPEND problems "${name} is read in src/ or bench/ but not seeded")
  endif()
endforeach()

names_read(all_names ${code_files} ${test_files})
foreach(name IN LISTS seeded)
  if(NOT name IN_LIST all_names)
    list(APPEND problems "${name} is seeded but read nowhere")
  endif()
endforeach()

if(problems)
  list(JOIN problems "\n  " report)
  message(FATAL_ERROR "DFGEN_* knob registry drift:\n  ${report}")
endif()
list(LENGTH seeded count)
message(STATUS "${count} seeded DFGEN_* names, all read, none unseeded")
