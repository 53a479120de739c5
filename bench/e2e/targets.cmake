# Included (deferred) at the end of the root CMakeLists.txt by hook.cmake,
# so corelite_bench links the library targets exactly as the
# repository builds them, with the root's compile options.
add_executable(corelite_bench ${CMAKE_CURRENT_LIST_DIR}/corelite_bench.cpp)
target_link_libraries(corelite_bench PRIVATE corelite_runner corelite_telemetry)
