# Header self-containedness check.
#
# For every header under src/, generate a translation unit containing only
# `#include "<header>"` and compile them all into one object library. A
# header that silently depends on its includer's context (a missing
# <vector>, a forward declaration it forgot) breaks this target — and
# therefore the `header_selfcheck` ctest — instead of breaking whichever
# unlucky TU includes it next.
#
# Generated TUs are content-compared before being rewritten, so a cmake
# re-run does not dirty the object library when nothing changed. The
# library is part of the default build, so a parallel `cmake --build -j`
# compiles the TUs; the ctest then only rebuilds what changed since.

file(GLOB_RECURSE CHPO_SELFCHECK_HEADERS
     RELATIVE "${CMAKE_SOURCE_DIR}/src"
     CONFIGURE_DEPENDS
     "${CMAKE_SOURCE_DIR}/src/*.hpp")

set(CHPO_SELFCHECK_TUS "")
foreach(header IN LISTS CHPO_SELFCHECK_HEADERS)
  string(REPLACE "/" "_" tu_name "${header}")
  string(REPLACE ".hpp" ".selfcheck.cpp" tu_name "${tu_name}")
  set(tu "${CMAKE_BINARY_DIR}/header_selfcheck/${tu_name}")
  set(tu_content "#include \"${header}\"\n")
  if(EXISTS "${tu}")
    file(READ "${tu}" tu_existing)
  else()
    set(tu_existing "")
  endif()
  if(NOT tu_existing STREQUAL tu_content)
    file(WRITE "${tu}" "${tu_content}")
  endif()
  list(APPEND CHPO_SELFCHECK_TUS "${tu}")
endforeach()

add_library(chpo_header_selfcheck OBJECT ${CHPO_SELFCHECK_TUS})
target_include_directories(chpo_header_selfcheck PRIVATE "${CMAKE_SOURCE_DIR}/src")
target_link_libraries(chpo_header_selfcheck PRIVATE chpo Threads::Threads)

add_test(NAME header_selfcheck
         COMMAND "${CMAKE_COMMAND}" --build "${CMAKE_BINARY_DIR}"
                 --target chpo_header_selfcheck)
# Build-invoking tests must not run concurrently with each other under
# `ctest -j` (two build-tool processes in one tree).
set_tests_properties(header_selfcheck PROPERTIES RUN_SERIAL TRUE)
