// R4 fixture: the eval-id resolver turns rule-file bytes into evaluation
// functions, so the eval_resolver.cc basename puts it in scope — an id
// that names nothing must return a Status, not abort.
#define AT_CHECK(cond) ((void)(cond))

namespace fixture {

void Resolve(const char* id) {
  AT_CHECK(id != nullptr);  // line 9: the violation
}

}  // namespace fixture
