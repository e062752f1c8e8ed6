#ifndef AUTOTEST_TYPEDET_CTA_ZOO_COEFFICIENTS_H_
#define AUTOTEST_TYPEDET_CTA_ZOO_COEFFICIENTS_H_

#include "typedet/cta_zoo.h"

namespace autotest::typedet {

/// The built-in zoos' trained coefficients. Defined in the generated
/// cta_zoo_coefficients.cc, which cta_zoo_bake writes into the build tree
/// (src/typedet/CMakeLists.txt); SharedSherlockSim()/SharedDoduoSim()
/// are packed from them.
extern const CtaZooCoefficients kSherlockSimCoefficients;
extern const CtaZooCoefficients kDoduoSimCoefficients;

}  // namespace autotest::typedet

#endif  // AUTOTEST_TYPEDET_CTA_ZOO_COEFFICIENTS_H_
