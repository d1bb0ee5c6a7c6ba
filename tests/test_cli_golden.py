"""Byte-identity of the default CLI outputs.

Each case pins the SHA-256 of one command's stdout, so a refactor of
the CLI or of the code behind it must keep every byte. The digests
depend on the floating-point results of numpy and the platform's libm;
change one only for a deliberate output change, and say so in
CHANGES.md.
"""

import hashlib

import pytest

from curved_landau import cli
from curved_landau.model import Component, Geometry

GOLDEN = [
    ("spectrum --model h3 --B 5 --two-m=-9..9 --n 0..5",
     "09da9d86afc220b72e8b3d96fc605aa03e19d17a8fbf9b8dd727a8602cf2c0c9"),
    ("spectrum --model h3 --B 2.5 --M 1 --two-m=-3..3 --n 0..3 --rho 2.5",
     "b3be9d323add642e12021fcc3bddae40deb589e6585e90822e8f57dc6f7b459b"),
    ("spectrum --model h3 --B -4 --two-m=-5..5 --n 0..4",
     "2def66258937ffda393316a5414cfd40d3be00a3f68b86680795a9e641bcf270"),
    ("spectrum --model s3 --B 2.5 --M 1.5 --two-m=-5..5 --n 0..3 --nz 0..2",
     "5a90b6024185f29c9063da5a3848111cfaf6fa6ab4012b71f06fd0667577c702"),
    ("spectrum --model s3 --B 1 --M 2 --two-m=-1..3 --n 0..2 --nz 0..1 "
     "--rho 3",
     "48068f9f7acfc3df805439e35594af68535d7bec4c0da4ed07bc4c905e33fc07"),
    ("spectrum --model s3 --B -2 --two-m=-3..3 --n 0..3",
     "54e817c28e7af00deeadf5c69b77c51492c42b9ca76dfdc87cb0a8c2ea8399be"),
    ("spectrum --model s3 --B 2.5 --M 1.5 --two-m=-3..3 --n 0..2 --nz 0..1 "
     "--format json",
     "c8668d22fa7c5f89cc1857382f3b42607c542c10f32d18bf1ada0d035d70a176"),
    ("regions --model h3 --B 5 --two-m=-11..11 --n 0..6",
     "239089a0b9d2f384e3d47e01bc1b5da491286dd83e7de58b65d77b6a194d6ffb"),
    ("regions --model h3 --B -3 --two-m=-7..7 --n 0..4",
     "3169042f0f65e0618ce41b0f36555738da55b3187321b9bed8880fc4883f94a5"),
    ("regions --model s3 --B 2 --two-m=-7..7 --n 0..4",
     "7d248b97bf3e642f2d57a48c58bc4d1b388b8f9fe89a93ee24b45487cf3ddb28"),
    ("regions --model s3 --B -2 --two-m=-7..7 --n 0..4",
     "d10836cc24e3f5023c43e53fb3da6ae866559b23d4f6b0d73f34c90568735d67"),
    ("wavefunction --model h3 --component r1 --B 5 --two-m=1 --n 1",
     "d40e2069629071ec2cdf9289c023e6f8cf503972d3ba91ab62ef5385a07585c1"),
    ("wavefunction --model h3 --component r2 --B 5 --two-m=3 --n 2",
     "b094ae6cbbdf378ed97691ffecb9c87074035feaf8a895046482de3cda09e5e7"),
    ("wavefunction --model h3 --component z1 --B 5 --two-m=1 --n 1 --p 0.7",
     "e9f1b784a08d322a71f8444e8053e07b5b2fbeab9fba38c48b44f45cfb7f8d09"),
    ("wavefunction --model h3 --component z2 --B 5 --two-m=1 --n 1 --p 1.3",
     "dc5e94564f5f53b5bb6bb16a47c914da7c1315220e3a5f3eb5e780ffb909b7f6"),
    ("wavefunction --model s3 --component r1 --B 2.5 --two-m=1 --n 1",
     "c12b0344c63b12cd1707875c590bdf7c1858727b5baa3bca35222a98c8d00d20"),
    ("wavefunction --model s3 --component r2 --B 2.5 --two-m=-3 --n 2",
     "311186554e3155db204086e7d7af1771bd56517d7708d8e9e42a33f216b323a9"),
    ("wavefunction --model s3 --component z1 --B 2.5 --two-m=1 --n 1 --nz 2",
     "e0e4104c5dbd0de316c0801d224a21ce01e510bf649b47f1a82e9082586e96f0"),
    ("wavefunction --model s3 --component z2 --B 2.5 --two-m=1 --n 1 --nz 1",
     "fb064892bc84500b67ceb796fbda715ea864b95c918dd0d111d2f7408ee7e76b"),
    ("verify --suite radial",
     "2f617d5610b69632108523a28852abfa0173029543ca454421b3291b82f157dc"),
    ("verify --suite pairs",
     "cba89446216a7b4c2e88c0ab0487d188f4dbf9b001191b5b983a3097eb627cb4"),
    ("verify --suite axial",
     "89328711ed571975969d36b4b4163bbb70c0e62924476f006d5cc84f6f7c05ad"),
    ("verify --suite commutator",
     "7090e48626665c3da76ec1d4cf6b7ae75e8021811225c33575a8126adaaee7d4"),
    ("verify --suite hyp",
     "060f22820e1794a268f19c3130fd1fe687920f2aea4b4cd6acd9e52ac5005538"),
    ("verify --suite flat-limit",
     "590153e3aa81029c18132f4f70b9f3342d0a7331221e72f5aa76fd3bd4e648ca"),
    ("regions --model h3 --B 5 --two-m=-7..7 --n 0..4 --format json",
     "57223c0ee07375be5358f4edfc55d6f0c0a5ddcbb00cdb6beb6d5d735e5a1d15"),
    ("regions --model s3 --B -2 --two-m=-7..7 --n 0..4 --format json",
     "37e75b6821a4f445d0977280b2b41323d7c7342eb65f38998960a906a484ff76"),
    ("regions --model h3 --B 0 --two-m=-7..7 --n 0..4 --format json",
     "88780ae96480a5e10cc9d89fca0a43d96b265c2a157f598a06731751db651452"),
    ("wavefunction --model h3 --component r1 --B 5 --two-m=1 --n 1 "
     "--format json",
     "de2d64baafd9faeac0d6089a743abebe23c0edaecde1ee846ec04e3a410d36cb"),
    ("wavefunction --model h3 --component z2 --B 5 --two-m=1 --n 1 --p 1.3 "
     "--format json",
     "bf4679c7ec3b6c29237fed3970731a008934af59ac4daa6bcc61c865f5454b2a"),
    ("wavefunction --model s3 --component z1 --B 2.5 --two-m=1 --n 1 --nz 2 "
     "--format json",
     "97cb5b6da21b172051a4a09ae2e412312c14240e91b149b757582703c2f1adfd"),
]

# The whole lattice |two_m| <= 41, n <= 60 at nine fields on both
# models: pins every variant row, the B < 0 reflection and the B = 0
# notes, not only a few points.
LATTICE = [
    ('spectrum --model h3 --B 0 --two-m=-41..41 --n 0..60',
     '6160ea28c28d3051070150615770a7b8c26a3fa6f84dbd3e282d74fa8876c2ef'),
    ('regions --model h3 --B 0 --two-m=-41..41 --n 0..60',
     '9764515e5ab400d4d9e57c58088a07dd4c9d580c94cccf41a804e28ee554349a'),
    ('spectrum --model h3 --B 0.3 --two-m=-41..41 --n 0..60',
     'cb7c1ac8926da3fabb2ff91a7491f4b469b141aa09cef7e9803259d17d6f2297'),
    ('regions --model h3 --B 0.3 --two-m=-41..41 --n 0..60',
     '1a868c6a5ca31c176c329691d4cf6faac61e0ed85d11077a0fcf18504c6fe1de'),
    ('spectrum --model h3 --B 0.5 --two-m=-41..41 --n 0..60',
     'a6f64a6a1c35acf5cddee36f24f0d9fff3c6be7b1c77a2a0660d51ab100a1a9f'),
    ('regions --model h3 --B 0.5 --two-m=-41..41 --n 0..60',
     '1ed9678259a2fe1b527e79fa49e298dd843e7d93994a6fe87dd5c084056154a1'),
    ('spectrum --model h3 --B 2.5 --two-m=-41..41 --n 0..60',
     'e0c3e4b65a6605459c92970cdb09b4b3aa388ce11cf0c9f703be028b8a6d608c'),
    ('regions --model h3 --B 2.5 --two-m=-41..41 --n 0..60',
     '197cfcb6dd76718ec2e6ab5b0f5e07419725d9dd43ecab217640dda08555013e'),
    ('spectrum --model h3 --B 7.3 --two-m=-41..41 --n 0..60',
     '8bebd46d7352c588a68c34f3d6db4305611f91e4c6c2f9089b236d2c0c549881'),
    ('regions --model h3 --B 7.3 --two-m=-41..41 --n 0..60',
     '832f940d2a1a391a8bef5931a1fd56f7a37f2b29d7cb100fbd7bc695094b7953'),
    ('spectrum --model h3 --B 50 --two-m=-41..41 --n 0..60',
     '5020e6d40888b7a3bbc21d909b06a6028caae1b42143763a89959cd63f0ff896'),
    ('regions --model h3 --B 50 --two-m=-41..41 --n 0..60',
     'a0917674dd28d1b7f5e077f57996b85d93a70f86e31f116f153b3bb541e3dc1d'),
    ('spectrum --model h3 --B -0.3 --two-m=-41..41 --n 0..60',
     'f822131dea8c8764c8613fdb3cb5c0f4865a73efa9c64e813bdc3b6b87311c63'),
    ('regions --model h3 --B -0.3 --two-m=-41..41 --n 0..60',
     '48ecc460240e022d6d9910280af099132e9df2b5cc70c2acd0dadf16675b961f'),
    ('spectrum --model h3 --B -2.5 --two-m=-41..41 --n 0..60',
     'a22535b3922d5d73517b5b31c7e35979a69ef457e3751dd8264144d8f79794e4'),
    ('regions --model h3 --B -2.5 --two-m=-41..41 --n 0..60',
     '4f00ea2803aa8c113abf0641ad635238c1654ade5a661329755d76e6a1d4eb18'),
    ('spectrum --model h3 --B -20 --two-m=-41..41 --n 0..60',
     'ef6618ea90284754c77d84e4474083aeeec645a6d0d1974fd1658b4a219e1a3b'),
    ('regions --model h3 --B -20 --two-m=-41..41 --n 0..60',
     'edf7aecbcbd6c11bc566a41258e4dccb08f3b99a3393c3a8c6b69fa27877b9b3'),
    ('spectrum --model s3 --B 0 --two-m=-41..41 --n 0..60',
     '893c9b35d5169cf68f1a451722510853ba025dd16a00b55ec4d8dcd2e769f081'),
    ('regions --model s3 --B 0 --two-m=-41..41 --n 0..60',
     '15b64243c746e9dbec0d5b92d8ba9ad181d56c247f36c9c253f05fbb1f7980c1'),
    ('spectrum --model s3 --B 0.3 --two-m=-41..41 --n 0..60',
     'a25105eebf08627a4cd32e28cd2b3f3a1726f5839c74e66c592e7baf8bc07549'),
    ('regions --model s3 --B 0.3 --two-m=-41..41 --n 0..60',
     '8bb252a5d6faaa9dd33cbe54fc436b22a5bbfd6a5971a5db88675859bf2e41b1'),
    ('spectrum --model s3 --B 0.5 --two-m=-41..41 --n 0..60',
     'a54f0eaea5fb131548f5a0395e03323daea8f10ac9dc7e52853f967974a234dd'),
    ('regions --model s3 --B 0.5 --two-m=-41..41 --n 0..60',
     '24f4e9ffb0676bc76e1388dd76f3a5399951f1736e1b5d0ef33b1089f250c593'),
    ('spectrum --model s3 --B 2.5 --two-m=-41..41 --n 0..60',
     'e9f1ca5d4cfad7918b2ba03992ae65d7f3a993d8ecc671485e1011039b06db22'),
    ('regions --model s3 --B 2.5 --two-m=-41..41 --n 0..60',
     'f316054757689f0675c3db359fd3535fd5f4986a8dad222d2b38c22ea8fb7254'),
    ('spectrum --model s3 --B 7.3 --two-m=-41..41 --n 0..60',
     'a9176bdda67e0ec47a7bbf1d1ae35fbdcc42809f5b073d30b3558f2bd453d7a3'),
    ('regions --model s3 --B 7.3 --two-m=-41..41 --n 0..60',
     '4d7bfbeeec6543836b093873c856d0ee88596d5f4e284092b17dae9126503fdb'),
    ('spectrum --model s3 --B 50 --two-m=-41..41 --n 0..60',
     '8dade1e8f25f77aa822210d607c2f896270d50f577881f471b16fb7a9720e594'),
    ('regions --model s3 --B 50 --two-m=-41..41 --n 0..60',
     'f2fa40ce48524e397b5f98d97dd66d55e3d65a77d4faed4e1ba968202ba9d504'),
    ('spectrum --model s3 --B -0.3 --two-m=-41..41 --n 0..60',
     '99a51488522ab0ac71946b12a8a55debf054dddf57e82471d484d4533947306f'),
    ('regions --model s3 --B -0.3 --two-m=-41..41 --n 0..60',
     'a7a315ef390f4453af497570fbe1fa1e40f7545cca3bbe450d30135aa989892f'),
    ('spectrum --model s3 --B -2.5 --two-m=-41..41 --n 0..60',
     '0452b432f868f4d0604bd5c700accfc37468bacd3ff8dcdece8b5c32349b796e'),
    ('regions --model s3 --B -2.5 --two-m=-41..41 --n 0..60',
     'd8f65ee855e1e2b3f3a342e93d4b9a579eaa5b350a5b70a33187e38ff6be9890'),
    ('spectrum --model s3 --B -20 --two-m=-41..41 --n 0..60',
     '88c350dc0c67e9decf21cbf89c7c06e53219bac57d870430a1577436808aeae9'),
    ('regions --model s3 --B -20 --two-m=-41..41 --n 0..60',
     'ff283fc1b2277adb8bb690284e001ef629217f4408f5e4748832e4a4778e5e44'),
]

# s3 --nz tables of the size the cli benchmark renders: the 40,000-row
# table at M = 1 (inadmissible levels with empty p/epsilon included), a
# --rho 2.5 --M 0 table at B < 0 (empty epsilon) and the 40,000-row
# table again as JSON.
TABLES = [
    ("spectrum --model s3 --B 1 --M 1 --two-m=-21..177 --n 0..39 --nz 0..9",
     "35c82a2447e566f6126b79ce2f2b0b29b448e177852112940e79ec98d42fe9f1"),
    ("spectrum --model s3 --B -2.5 --M 0 --rho 2.5 --two-m=-41..41 --n 0..20 "
     "--nz 0..4",
     "e9a6f43eed298e280781ff389cd72362614661328bd2588853c81ec9f34afc91"),
    ("spectrum --model s3 --B 1 --M 1 --two-m=-21..177 --n 0..39 --nz 0..9 "
     "--format json",
     "e3a6f293cb5359cdd032cf9a18e006343d065d39d39aa196e2fd124456f9ec78"),
]

# One radial state per variant row at B >= 0 (h3: 1, 2, 3', 3', and 4'
# at B = 2.5; s3: 1, 2, 3, 4', 1', 3'), plus B = 0 and small-B states.
# R2's row is the partner of R1's: h3 r2 at two_m = -1 is on 3', since
# R1 takes variant 2 there.
RADIAL_WAVEFUNCTIONS = [
    ('wavefunction --model h3 --component r1 --B 5 --two-m=3 --n 2',
     '65adaebe6b2247430cc27bdf2e6340452a34b2becc32a8a5a4206947c4100c0c'),
    ('wavefunction --model h3 --component r1 --B 5 --two-m=-3 --n 1',
     '76c4a738fb9fff04bf560a4b5e6f975c6c8eb410176602f669fb3c4f68ac365b'),
    ('wavefunction --model h3 --component r2 --B 5 --two-m=-1 --n 1',
     '0ce70fd2cb4efd82d18e5e32983b52653f8824e20f4dd31011f65fad677fb362'),
    ('wavefunction --model h3 --component r2 --B 5 --two-m=-5 --n 0',
     'ccf5214a39c781c8f1fbc6bd657c849a52707301b5ee4fae109db461f02e5a2b'),
    ('wavefunction --model h3 --component r1 --B 7.3 --two-m=7 --n 4',
     '9c326568daba7a04d2e3216884e46d2ee2d830c72a4341d16f7a92a0ff182ecf'),
    ('wavefunction --model h3 --component r2 --B 2.5 --two-m=1 --n 0',
     'b3a96d0b8f4ae8d65e2fa28faf0bace18fccf0843f1b6176581e94486d41751f'),
    ('wavefunction --model s3 --component r1 --B 2.5 --two-m=-3 --n 1',
     '599d0f516cfb55292983cb8e1fe731336ad0484f8484329a1e8d4ed245a0b4cb'),
    ('wavefunction --model s3 --component r1 --B 2.5 --two-m=3 --n 1',
     '3c7d1682abb562bfc3374716388bf7db6e4a88982725fca34c5532500b416457'),
    ('wavefunction --model s3 --component r1 --B 2.5 --two-m=11 --n 0',
     '153d6d203146d009f3cd85c116b3368583cfd16a29b22505fbde91cdd6573878'),
    ('wavefunction --model s3 --component r2 --B 2.5 --two-m=1 --n 2',
     'a57e5d50a163341adeb8a46ad0bcd0ef168e368da3b60a2f9a8d0d93e07ce523'),
    ('wavefunction --model s3 --component r2 --B 2.5 --two-m=11 --n 1',
     'f1a81cbd14b3fb995c2787b2222ea6200cbc03ba582a501d76981ce97fdf4742'),
    ('wavefunction --model s3 --component r1 --B 0 --two-m=1 --n 1',
     'a6de514ad137770d0f961c551fd576b0cec8b3a4e1953cb8342b4fe11e51d944'),
    ('wavefunction --model s3 --component r2 --B 0.3 --two-m=-5 --n 3',
     '4b2a0c326ebb46da83c78d76aa3b9970458b92777f8a5ca6bb47474ecbc3e66e'),
]


# B < 0 radial states build the reflected state quantize names (variant
# 4' of (m, B) = (1/2, 5) and variant 1 of (-3/2, 2.5)); their samples
# equal those of the reflected commands byte for byte.
NEGATIVE_FIELD_WAVEFUNCTIONS = [
    ("wavefunction --model h3 --component r1 --B -5 --two-m=-1 --n 1",
     "b08c8571e620c1b0bc6e7c7e7b38e330fc858f3cdd102f779867bbb8b146fa74"),
    ("wavefunction --model s3 --component r2 --B -2.5 --two-m=3 --n 1",
     "89ae3b7da1812da22be1656c6a8c2fd963bdd956c181a1698c1fb2197bd47bac"),
]

# Axial wavefunctions over a lattice, one digest per (model, component,
# B) over every command's exit code and stdout, so refused states (exit
# 4) are pinned too: h3 at p in {0.3, 0.7, 1.3, 2.5}, two_m in
# {-3, 1, 3}, n <= 2; s3 at n_z <= 20, two_m in {-3, 1, 3}, n <= 1.
AXIAL_WAVEFUNCTIONS = [
    ("h3", "z1", "2.5",
     "591933e9b9d8ad93ca18175fa58b09ef886917a912275077ae7100326d3a8f1b"),
    ("h3", "z1", "5",
     "96bb7c9bb9aa567a8e88bbb214fadb71a21516079da1e0bed198aff7a454803d"),
    ("h3", "z1", "-5",
     "1df9d00d5e94aa9e0e04494d53fba81dec9d872a853220b48e7873c90894f7c8"),
    ("h3", "z2", "2.5",
     "4c503ad97760c162dd8eebf2ddb87f8818858ffb22ac77188a9998107d62a244"),
    ("h3", "z2", "5",
     "ad0443f0a7baaef81a9d18315c03143625614e142f7836c0e0c1e96609527752"),
    ("h3", "z2", "-5",
     "46abe0cbdf4ef6f4789d0c3609541e3682b57d2c9288d75b180d4a65a58f3735"),
    ("s3", "z1", "0.5",
     "5dc7fefa43f6346ae917b12b2355b00b27e04a251ef31e3314e2e2e5a22e0b88"),
    ("s3", "z1", "2.5",
     "cc5c1ccacef49a7cd272b605e035637a489131fece15113b87810629af3b397f"),
    ("s3", "z1", "-2",
     "0fede504e41f71c6aa29814e8cec936745f89b2c2c7ad2525dd0ed6656bef723"),
    ("s3", "z2", "0.5",
     "35d0ed5d7896de89789927cd7bf2d65209b23d916d0b95fbe412a082585a9a37"),
    ("s3", "z2", "2.5",
     "815c3e1668339c87e98b7cf97e2b5f345ef18b058e774956e2daf5ac858fa77f"),
    ("s3", "z2", "-2",
     "39a90a994c5d22c298844558732bf96e0eb7f518a7cdb831c8fa4ea4360f8716"),
]


def _axial_commands(model, component, B):
    axial = ([f"--p {p}" for p in ("0.3", "0.7", "1.3", "2.5")]
             if model == "h3" else [f"--nz {n_z}" for n_z in range(21)])
    for two_m in (-3, 1, 3):
        for n in range(3 if model == "h3" else 2):
            for flag in axial:
                yield (f"wavefunction --model {model} --component {component} "
                       f"--B {B} --two-m={two_m} --n {n} {flag}")


def _check(capsys, command, digest):
    code = cli.main(command.split())
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


@pytest.mark.parametrize("command, digest", GOLDEN,
                         ids=[c for c, _ in GOLDEN])
def test_default_output_is_byte_identical(capsys, command, digest):
    _check(capsys, command, digest)


@pytest.mark.parametrize("command, digest", LATTICE,
                         ids=[c for c, _ in LATTICE])
def test_lattice_output_is_byte_identical(capsys, command, digest):
    _check(capsys, command, digest)


@pytest.mark.parametrize("command, digest", TABLES,
                         ids=[c for c, _ in TABLES])
def test_table_output_is_byte_identical(capsys, command, digest):
    _check(capsys, command, digest)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_out_file_bytes_equal_stdout_bytes(tmp_path, capsys, fmt):
    argv = ("spectrum --model s3 --B 1 --M 1 --two-m=-5..5 --n 0..3 --nz 0..2 "
            f"--format {fmt}").split()
    assert cli.main(argv) == 0
    stdout = capsys.readouterr().out
    path = tmp_path / "table"
    assert cli.main(argv + ["--out", str(path)]) == 0
    assert capsys.readouterr().out == ""
    assert path.read_bytes() == stdout.encode("utf-8")


@pytest.mark.parametrize("command, digest", RADIAL_WAVEFUNCTIONS,
                         ids=[c for c, _ in RADIAL_WAVEFUNCTIONS])
def test_radial_wavefunction_is_byte_identical(capsys, command, digest):
    _check(capsys, command, digest)


@pytest.mark.parametrize("command, digest", NEGATIVE_FIELD_WAVEFUNCTIONS,
                         ids=[c for c, _ in NEGATIVE_FIELD_WAVEFUNCTIONS])
def test_negative_field_wavefunction_is_byte_identical(capsys, command, digest):
    _check(capsys, command, digest)


@pytest.mark.parametrize("model, component, B, digest", AXIAL_WAVEFUNCTIONS,
                         ids=[" ".join(c[:3]) for c in AXIAL_WAVEFUNCTIONS])
def test_axial_wavefunction_is_byte_identical(capsys, model, component, B,
                                              digest):
    h = hashlib.sha256()
    for command in _axial_commands(model, component, B):
        code = cli.main(command.split())
        out = capsys.readouterr().out
        h.update(f"{command}\n{code}\n{out}".encode("utf-8"))
    assert h.hexdigest() == digest


# (model, B) of every lattice spectrum above.
AUDIT_FIELDS = [(c.split()[2], float(c.split()[4]))
                for c, _ in LATTICE if c.startswith("spectrum")]


@pytest.mark.parametrize("model, B", AUDIT_FIELDS,
                         ids=[f"{m} B={B:g}" for m, B in AUDIT_FIELDS])
def test_unified_audit_reads_the_quantized_level(model, B):
    """The audit's variant_rhs is the rhs that quantize squared, at
    every row of the lattice with a variant: kappa rhs^2 - kappa B^2 is
    the row's lambda_sq exactly, and rhs > 0 wherever the row is
    admissible. At B < 0 both read the reflected R2 level."""
    rec = Geometry(model).record
    kappa = rec.kappa
    for two_m in range(-41, 42, 2):
        for n in range(61):
            entry = rec.quantize(two_m, B, n, Component.R1)
            rhs = rec.audits(two_m, B, (n,))[0].variant_rhs
            if entry.variant is None:
                continue
            assert kappa * rhs * rhs - kappa * B * B == entry.lambda_sq, \
                (two_m, n, rhs, entry.lambda_sq)
            if entry.admissible:
                assert rhs > 0.0, (two_m, n, rhs)
